(* paper_eval: the paper's evaluation on one 8-core Niagara chip.
   Sim.Engine.run for {No-TC, Basic-DFS, Pro-Temp} x {web, multimedia,
   compute_intensive}, each an open-loop trace.  Pro-Temp serves a heap
   Table built by Offline.sweep during set-up.  This runs Engine.run,
   the heap Table and the second table builder, all of which
   fleet_serve bypasses (Fleet.Chip carries its own step loop).

   The drain cap is raised from the engine's 60 s to 1000 s so every
   controller finishes every task: Basic-DFS on compute_intensive
   falls behind its arrivals and needs about 210 simulated seconds past
   the last one, which sim.paper.basic_dfs_drain_s reports. *)

open Common

let mixes = Workload.Mix.[ web; multimedia; compute_intensive ]
let controllers = [ "no_tc"; "basic_dfs"; "pro_temp" ]

type env = {
  machine : Sim.Machine.t;
  sizes : sizes;
  traces : Workload.Trace.t list;
  table : Protemp.Table.t;
  sweep_s : float;
  cell_ms : float list;  (* per-cell solve times from on_progress *)
  config : Sim.Engine.config;
}

(* Offline.sweep at 1 domain, timed, with per-cell times. *)
let sweep ~sizes machine =
  let cell_ms = ref [] in
  let on_progress (p : Protemp.Offline.progress) =
    match p.Protemp.Offline.outcome with
    | `Feasible | `Infeasible ->
        cell_ms := (p.Protemp.Offline.seconds *. 1e3) :: !cell_ms
    | `Pruned -> ()
  in
  let s, table =
    Span.with_ "protemp.offline.sweep" (fun () ->
        timed_host (fun () ->
            Protemp.Offline.sweep ~domains:1 ~tstarts:sizes.paper_tstarts
              ~ftargets:sizes.paper_ftargets ~on_progress ~machine
              ~spec:Protemp.Spec.default ()))
  in
  (s, table, !cell_ms)

let sweep_cells env =
  Array.length env.sizes.paper_tstarts * Array.length env.sizes.paper_ftargets

let setup ~sizes ~seed =
  let machine = Span.with_ "sim.machine.niagara" Sim.Machine.niagara in
  let traces =
    List.mapi
      (fun k mix ->
        Span.with_ "workload.trace_generate" (fun () ->
            Workload.Trace.generate
              ~seed:(Int64.of_int ((3 * seed) + k))
              ~n_tasks:sizes.paper_tasks mix))
      mixes
  in
  let sweep_s, table, cell_ms = sweep ~sizes machine in
  {
    machine;
    sizes;
    traces;
    table;
    sweep_s;
    cell_ms;
    config = { Sim.Engine.default_config with Sim.Engine.drain_limit = 1000.0 };
  }

let controller env = function
  | "no_tc" -> Protemp.No_tc.create ~fmax:env.machine.Sim.Machine.fmax
  | "basic_dfs" -> Protemp.Basic_dfs.create ~fmax:env.machine.Sim.Machine.fmax ()
  | _ -> Protemp.Controller.create ~table:env.table

type cell = {
  ctrl : string;
  mix : string;
  tasks : int;
  horizon : float;
  engine_s : float;
  result : Sim.Engine.result;
}

type rep = {
  sweep_s : float;
  rebuilt : Protemp.Table.t;
  cells : cell list;
  words : float;
}

(* The sweep is rebuilt on every repetition, so cells_per_s gets as
   many samples as steps_per_s; the nine cells serve the set-up's
   table.  [decide name] and [choose] wrap the callbacks in the traced
   pass. *)
let rep ?(decide = fun _ c -> c) ?(choose = Fun.id) env =
  Span.with_ "paper_eval" (fun () ->
      let sweep_s, rebuilt, _ = sweep ~sizes:env.sizes env.machine in
      let w0 = Gc.minor_words () in
      let cells =
        List.concat_map
          (fun (trace : Workload.Trace.t) ->
            List.map
              (fun ctrl ->
                let c = decide ctrl (controller env ctrl) in
                let engine_s, result =
                  Span.with_ ("sim.engine.run." ^ ctrl) (fun () ->
                      timed_host (fun () ->
                          Sim.Engine.run ~config:env.config env.machine c
                            (choose Sim.Policy.first_idle) trace))
                in
                {
                  ctrl;
                  mix = trace.Workload.Trace.mix_name;
                  tasks = Array.length trace.Workload.Trace.tasks;
                  horizon = trace.Workload.Trace.horizon;
                  engine_s;
                  result;
                })
              controllers)
          env.traces
      in
      { sweep_s; rebuilt; cells; words = Gc.minor_words () -. w0 })

let stats c = c.result.Sim.Engine.stats
let steps c = Sim.Stats.total_steps (stats c)
let sum f l = List.fold_left (fun a x -> a + f x) 0 l
let of_ctrl ctrl r = List.filter (fun c -> c.ctrl = ctrl) r.cells

(* Pro-Temp's cells merged, in mix order.  With [~stable:true] the
   compute_intensive cell is left out: its 85 % offered load is above
   what Pro-Temp can sustain under tmax, so its queue grows for the
   whole trace and its waits measure backlog length (tens of seconds,
   swinging by a fifth between seeds), not latency. *)
let pro_temp_stats ?(stable = false) env r =
  let into =
    Sim.Stats.create ~n_cores:env.machine.Sim.Machine.n_cores
      ~tmax:env.config.Sim.Engine.tmax ()
  in
  List.iter
    (fun c ->
      if not (stable && c.mix = Workload.Mix.compute_intensive.Workload.Mix.name)
      then Sim.Stats.merge_into ~into (stats c))
    (of_ctrl "pro_temp" r);
  into

let check_reps env reps =
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          check
            (Printf.sprintf "paper_eval %s/%s: completed + unfinished = tasks"
               c.ctrl c.mix)
            (Sim.Stats.completed (stats c) + c.result.Sim.Engine.unfinished
            = c.tasks);
          if c.ctrl = "pro_temp" then
            check
              (Printf.sprintf "paper_eval pro_temp/%s never exceeds tmax" c.mix)
              (Sim.Stats.violation_steps (stats c) = 0))
        r.cells;
      check "paper_eval: Offline.sweep rebuilds a bit-identical table"
        (cells_of r.rebuilt = cells_of env.table))
    reps;
  same "paper_eval steps per cell"
    (List.map (fun r -> List.map steps r.cells) reps);
  same "paper_eval violation steps per cell"
    (List.map
       (fun r -> List.map (fun c -> Sim.Stats.violation_steps (stats c)) r.cells)
       reps);
  same "paper_eval Pro-Temp mean wait"
    (List.map (fun r -> Sim.Stats.mean_waiting (pro_temp_stats env r)) reps);
  same "paper_eval Pro-Temp energy"
    (List.map (fun r -> Sim.Stats.energy (pro_temp_stats env r)) reps)

let host_s r = List.fold_left (fun a c -> a +. c.engine_s) 0.0 r.cells
let unfinished r = sum (fun c -> c.result.Sim.Engine.unfinished) r.cells

let e2e env reps ~setup_times =
  check_reps env reps;
  let first = List.hd reps in
  let pt = pro_temp_stats env first in
  rate_metric "cells_per_s"
    (List.map (fun r -> (0, float_of_int (sweep_cells env), r.sweep_s)) reps);
  (* Each of the nine cells is its own group. *)
  rate_metric "steps_per_s"
    (List.concat_map
       (fun r ->
         List.mapi (fun k c -> (k, float_of_int (steps c), c.engine_s)) r.cells)
       reps);
  metric "setup_s" "s" (median setup_times);
  metric "wait_mean_ms" "ms"
    (Sim.Stats.mean_waiting (pro_temp_stats ~stable:true env first) *. 1e3);
  metric "energy_j" "J" (Sim.Stats.energy pt);
  count "feasible_cells" (List.length (feasible_set env.table));
  ( sum (fun c -> c.tasks) first.cells * List.length reps,
    sum unfinished reps )

(* ------------------------------------------------------------------ *)

let traced env =
  Span.enabled := false;
  let plain = rep env in
  Span.enabled := true;
  let decides = List.map (fun c -> (c, Span.hot ("decide." ^ c))) controllers in
  let choose = Span.hot "sim.policy.choose" in
  let t =
    rep
      ~decide:(fun ctrl c -> Span.wrap_controller (List.assoc ctrl decides) c)
      ~choose:(Span.wrap_assignment choose) env
  in
  check_reps env [ plain; t ];
  let n = sum steps plain.cells in
  List.iter
    (fun ctrl ->
      let cs = of_ctrl ctrl plain in
      metric ("sim.engine.ns_per_step." ^ ctrl) "ns"
        (List.fold_left (fun a c -> a +. c.engine_s) 0.0 cs
        *. 1e9
        /. float_of_int (sum steps cs)))
    controllers;
  count "sim.engine.minor_words" (int_of_float plain.words);
  metric "sim.engine.minor_words_per_step" "words" (plain.words /. float_of_int n);
  count "sim.engine.steps" n;
  count "sim.policy.choose_calls" choose.Span.count;
  metric "sim.policy.choose_ns" "ns" (Span.mean_ns choose);
  let engine_ns =
    List.fold_left
      (fun a ctrl -> a +. float_of_int (Span.total_ns ("sim.engine.run." ^ ctrl)))
      0.0 controllers
  in
  let hot_ns = List.fold_left (fun a (_, h) -> a + h.Span.sum_ns) choose.Span.sum_ns decides in
  metric "sim.engine.self_frac" "ratio" ((engine_ns -. float_of_int hot_ns) /. engine_ns);
  metric "protemp.controller.decide_ns.table" "ns"
    (Span.mean_ns (List.assoc "pro_temp" decides));
  metric "protemp.basic_dfs.decide_ns" "ns" (Span.mean_ns (List.assoc "basic_dfs" decides));
  metric "protemp.offline.sweep_s" "s" env.sweep_s;
  metric "protemp.offline.cell_ms_p50" "ms" (quantile env.cell_ms 0.5);
  metric "protemp.offline.cell_ms_p95" "ms" (quantile env.cell_ms 0.95);
  let viol ctrl = sum (fun c -> Sim.Stats.violation_steps (stats c)) (of_ctrl ctrl plain) in
  count "sim.paper.no_tc_violation_steps" (viol "no_tc");
  count "sim.paper.basic_dfs_violation_steps" (viol "basic_dfs");
  metric "sim.paper.basic_dfs_drain_s" "s"
    (List.fold_left
       (fun a c -> a +. (Sim.Stats.simulated_time (stats c) -. c.horizon))
       0.0 (of_ctrl "basic_dfs" plain));
  metric "sim.paper.pro_temp_backlog_p99_ms" "ms"
    (Sim.Stats.waiting_percentile (pro_temp_stats env plain) 0.99 *. 1e3);
  let t_s = host_s t and p_s = host_s plain in
  metric "paper_eval.trace_overhead_frac" "ratio" ((t_s -. p_s) /. p_s);
  (sum (fun c -> c.tasks) plain.cells * 2, unfinished plain + unfinished t)
