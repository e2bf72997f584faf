(* fleet_serve: the online read path at rack scale.  Chips serve an
   open-loop paper_mix trace (arrival times fixed by the generator,
   n_cores = 4 x chips: half duty), routed by coolest_headroom with a
   50 C/s thermal penalty in 0.1 s windows.  Every controller is
   Controller.of_store over one mmap'd, 5 C guard-banded
   Guarantee.uniform_table image.  Cluster routing and the Fleet.Chip
   step loop do the work; the conic solver does none. *)

open Common

let guard_margin = 5.0

type env = {
  machine : Sim.Machine.t;
  trace : Workload.Trace.t;
  store : Protemp.Table_store.t;
  table : Protemp.Table.t;
  rebuild_path : string;
  config : Fleet.Cluster.config;
}

let tstarts = Array.init 74 (fun i -> 27.0 +. float_of_int i)
let ftargets = Array.init 9 (fun i -> float_of_int (i + 1) *. 1e8)
let table_cells = Array.length tstarts * Array.length ftargets

(* The serving image: uniform_table -> write -> open, timed. *)
let build_store machine path =
  timed_host (fun () ->
      let table =
        Span.with_ "protemp.guarantee.uniform_table" (fun () ->
            Protemp.Guarantee.uniform_table ~machine ~spec:Protemp.Spec.default
              ~margin:guard_margin ~tstarts ~ftargets ())
      in
      Span.with_ "protemp.table_store.write" (fun () ->
          Protemp.Table_store.write ~core_fmax:machine.Sim.Machine.core_fmax
            table path);
      let store =
        Span.with_ "protemp.table_store.open" (fun () ->
            Protemp.Table_store.open_file path)
      in
      (table, store))

let setup ~sizes ~seed ~out_dir =
  let machine = Span.with_ "sim.machine.niagara" Sim.Machine.niagara in
  let _, (table, store) =
    build_store machine (Filename.concat out_dir "fleet_serve.ptbl")
  in
  let trace =
    Span.with_ "workload.trace_generate" (fun () ->
        Workload.Trace.generate ~n_cores:(4 * sizes.fleet_chips)
          ~seed:(Int64.of_int seed) ~n_tasks:sizes.fleet_tasks
          Workload.Mix.paper_mix)
  in
  {
    machine;
    trace;
    store;
    table;
    rebuild_path = Filename.concat out_dir "fleet_serve.rebuilt.ptbl";
    config =
      {
        Fleet.Cluster.default_config with
        Fleet.Cluster.n_chips = sizes.fleet_chips;
        thermal_penalty = 50.0;
      };
  }

type rep = {
  store_s : float;
  rebuilt : Protemp.Table.t;
  cluster_s : float;
  result : Fleet.Cluster.result;
  words : float;
}

(* The image is rebuilt (to a second file: the fleet keeps serving the
   first mapping) on every repetition, with the trace in the heap as in
   every other sample, so cells_per_s gets as many samples as
   steps_per_s.  [decide] and [balancer] wrap the callbacks
   in the traced pass. *)
let rep ?(decide = Fun.id) ?(balancer = Fun.id) env =
  Span.with_ "fleet_serve" (fun () ->
      let store_s, (rebuilt, _) = build_store env.machine env.rebuild_path in
      let chip _ =
        Fleet.Chip.create ~machine:env.machine
          ~controller:(decide (Protemp.Controller.of_store ~store:env.store))
          ~assignment:Sim.Policy.first_idle ()
      in
      let w0 = Gc.minor_words () in
      let cluster_s, result =
        Span.with_ "fleet.cluster.run" (fun () ->
            timed_host (fun () ->
                Fleet.Cluster.run ~config:env.config ~domains:1
                  ~balancer:(balancer (Fleet.Balancer.coolest_headroom ()))
                  ~chip env.trace))
      in
      { store_s; rebuilt; cluster_s; result; words = Gc.minor_words () -. w0 })

let stats r = r.result.Fleet.Cluster.stats
let steps r = Sim.Stats.total_steps (stats r)

let check_reps env reps =
  let tasks = Array.length env.trace.Workload.Trace.tasks in
  List.iter
    (fun r ->
      check "fleet_serve: Pro-Temp fleet never exceeds tmax"
        (Sim.Stats.violation_steps (stats r) = 0);
      check "fleet_serve: completed + unfinished = tasks"
        (Sim.Stats.completed (stats r) + r.result.Fleet.Cluster.unfinished
        = tasks);
      check "fleet_serve: the rebuilt image holds the same table"
        (cells_of r.rebuilt = cells_of env.table))
    reps;
  same "fleet_serve steps" (List.map steps reps);
  same "fleet_serve mean wait"
    (List.map (fun r -> Sim.Stats.mean_waiting (stats r)) reps);
  same "fleet_serve energy" (List.map (fun r -> Sim.Stats.energy (stats r)) reps);
  same "fleet_serve routed/held"
    (List.map
       (fun r -> (r.result.Fleet.Cluster.routed, r.result.Fleet.Cluster.held))
       reps)

let e2e env reps ~setup_times =
  check_reps env reps;
  let first = List.hd reps in
  rate_metric "cells_per_s"
    (List.map (fun r -> (0, float_of_int table_cells, r.store_s)) reps);
  rate_metric "steps_per_s"
    (List.map (fun r -> (0, float_of_int (steps r), r.cluster_s)) reps);
  metric "setup_s" "s" (median setup_times);
  metric "wait_mean_ms" "ms" (Sim.Stats.mean_waiting (stats first) *. 1e3);
  metric "energy_j" "J" (Sim.Stats.energy (stats first));
  count "feasible_cells" (List.length (feasible_set env.table));
  let tasks = Array.length env.trace.Workload.Trace.tasks in
  ( tasks * List.length reps,
    List.fold_left (fun a r -> a + r.result.Fleet.Cluster.unfinished) 0 reps )

(* ------------------------------------------------------------------ *)

let traced env =
  Span.enabled := false;
  let plain = rep env in
  Span.enabled := true;
  let choose = Span.hot "fleet.balancer.choose" in
  let decide = Span.hot "protemp.controller.decide.store" in
  let t =
    rep ~decide:(Span.wrap_controller decide)
      ~balancer:(Span.wrap_balancer choose) env
  in
  check_reps env [ plain; t ];
  let n = steps t in
  let routed = t.result.Fleet.Cluster.routed
  and held = t.result.Fleet.Cluster.held in
  let cluster_ns = float_of_int (Span.total_ns "fleet.cluster.run") in
  count "fleet.balancer.choose_calls" choose.Span.count;
  metric "fleet.balancer.choose_ns" "ns" (Span.mean_ns choose);
  metric "fleet.balancer.choose_ns_p95" "ns" (Span.quantile_ns choose 0.95);
  metric "fleet.balancer.share" "ratio" (float_of_int choose.Span.sum_ns /. cluster_ns);
  count "fleet.routed" routed;
  count "fleet.held" held;
  metric "fleet.route_rate" "ratio" (float_of_int routed /. float_of_int (routed + held));
  metric "fleet.chip.self_ns_per_step" "ns"
    ((cluster_ns -. float_of_int choose.Span.sum_ns -. float_of_int decide.Span.sum_ns)
    /. float_of_int n);
  count "fleet.chip_steps" n;
  metric "fleet.wait_p99_ms" "ms" (Sim.Stats.waiting_percentile (stats t) 0.99 *. 1e3);
  count "sim.fleet_minor_words" (int_of_float plain.words);
  metric "sim.fleet_minor_words_per_step" "words" (plain.words /. float_of_int n);
  metric "protemp.controller.decide_ns.store" "ns" (Span.mean_ns decide);
  count "protemp.controller.decide_calls.store" decide.Span.count;
  metric "protemp.guarantee.uniform_table_s" "s"
    (float_of_int (Span.total_ns "protemp.guarantee.uniform_table")
    /. 1e9
    /. float_of_int (List.length (Span.named "protemp.guarantee.uniform_table")));
  metric "fleet_serve.trace_overhead_frac" "ratio"
    ((t.cluster_s -. plain.cluster_s) /. plain.cluster_s);
  ( 2 * Array.length env.trace.Workload.Trace.tasks,
    plain.result.Fleet.Cluster.unfinished + t.result.Fleet.Cluster.unfinished )
