(* table_build: the offline write path.  A Niagara Dense_table fill at
   the paper's formulation (Spec.default, constraint stride 1), then
   to_table -> Table_store.write -> open_file.  The conic solver and
   Model construction do almost all of the fill's work; sim and fleet
   do none of it.

   Each repetition then serves the opened image with Pro-Temp through
   Sim.Engine on a web trace, whose queue is stable, so steps_per_s,
   wait_mean_ms and energy_j have a meaning on this workload too.  Once
   per run each grid's image also serves a paper_mix trace, which
   drives the chip into the table's hot rows; its violating steps are
   printed and reported (protemp.dense.serve_violation_steps, grid 0)
   but are not a failed operation here: this workload's operations are
   cells. *)

open Common

type env = {
  machine : Sim.Machine.t;
  spec : Protemp.Spec.t;
  tstarts : float array;
  ftargets : float array;
  serve_trace : Workload.Trace.t;
  hot_trace : Workload.Trace.t;
  store_path : string;
}

(* Endpoints fixed, interior points moved by up to a quarter step, so
   the axes stay strictly increasing whatever the seed. *)
let jittered rng ~lo ~hi n =
  let step = (hi -. lo) /. float_of_int (n - 1) in
  Array.init n (fun i ->
      if i = 0 then lo
      else if i = n - 1 then hi
      else
        lo +. (float_of_int i *. step)
        +. ((Random.State.float rng 0.5 -. 0.25) *. step))

(* [sizes.grids] grids, each jittered from its own stream of the seed
   (grid 0 from the seed alone).  The jitter moves how many solver
   iterations a grid takes by up to a fifth, so a run fills every grid
   in turn and its rates cover them all, not the luck of one draw.  The
   grids share the machine and the check traces. *)
let setup ~sizes ~seed ~out_dir =
  let machine = Span.with_ "sim.machine.niagara" Sim.Machine.niagara in
  let trace n mix =
    Span.with_ "workload.trace_generate" (fun () ->
        Workload.Trace.generate ~seed:(Int64.of_int seed)
          ~n_tasks:n mix)
  in
  let serve_trace = trace sizes.check_tasks Workload.Mix.web in
  let hot_trace = trace sizes.hot_tasks Workload.Mix.paper_mix in
  Array.init sizes.grids (fun g ->
      let rng = Random.State.make (if g = 0 then [| seed |] else [| seed; g |]) in
      let tstarts = jittered rng ~lo:27.0 ~hi:100.0 sizes.grid_rows in
      let ftargets = jittered rng ~lo:1e8 ~hi:1e9 sizes.grid_cols in
      {
        machine;
        spec = Protemp.Spec.default;
        tstarts;
        ftargets;
        serve_trace;
        hot_trace;
        store_path = Filename.concat out_dir (Printf.sprintf "table_build-%d.ptbl" g);
      })

let fresh env =
  Protemp.Dense_table.create ~machine:env.machine ~spec:env.spec
    ~tstarts:env.tstarts ~ftargets:env.ftargets ()

let stage name f = Span.with_ name (fun () -> timed f)

let serve env store trace =
  Sim.Engine.run env.machine
    (Protemp.Controller.of_store ~store)
    Sim.Policy.first_idle trace

type rep = {
  build_s : float;  (* fill -> to_table -> write -> open *)
  write_s : float;
  open_s : float;
  fill : Protemp.Dense_table.fill_stats;
  table : Protemp.Table.t;
  store : Protemp.Table_store.t;
  engine_s : float;
  served : Sim.Engine.result;
}

let rep env =
  Span.with_ "table_build" (fun () ->
      let d = fresh env in
      let build_s, (fill, table, write_s, open_s, store) =
        timed_host (fun () ->
            let _, fill =
              stage "protemp.dense.fill" (fun () ->
                  Protemp.Dense_table.fill ~domains:1 d)
            in
            let _, table =
              stage "protemp.dense.to_table" (fun () ->
                  Protemp.Dense_table.to_table ~domains:1 d)
            in
            let write_s, () =
              stage "protemp.table_store.write" (fun () ->
                  Protemp.Table_store.write
                    ~core_fmax:env.machine.Sim.Machine.core_fmax table
                    env.store_path)
            in
            let open_s, store =
              stage "protemp.table_store.open" (fun () ->
                  Protemp.Table_store.open_file env.store_path)
            in
            (fill, table, write_s, open_s, store))
      in
      let engine_s, served =
        Span.with_ "sim.engine.run.pro_temp_store" (fun () ->
            timed_host (fun () -> serve env store env.serve_trace))
      in
      { build_s; write_s; open_s; fill; table; store; engine_s; served })

let n_cells env = Array.length env.tstarts * Array.length env.ftargets

(* The operations of this workload are cells: a feasible cell fails
   when its window_peak certificate exceeds tmax. *)
let uncertified env table =
  List.length
    (List.filter
       (fun (i, j, c) ->
         match c with
         | Protemp.Table.Frequencies f ->
             let peak =
               Protemp.Guarantee.window_peak ~machine:env.machine
                 ~dfs_period:env.spec.Protemp.Spec.dfs_period
                 ~tstart:env.tstarts.(i) ~frequencies:f
             in
             let ok = peak <= env.spec.Protemp.Spec.tmax +. 1e-9 in
             if not ok then
               Printf.printf "  cell (%g C, %g Hz) peaks at %.6f C\n"
                 env.tstarts.(i) env.ftargets.(j) peak;
             not ok
         | Protemp.Table.Infeasible -> false)
       (cells_of table))

(* Pro-Temp on the table's hot rows; see the header comment. *)
let hot_violations env r =
  let s = (serve env r.store env.hot_trace).Sim.Engine.stats in
  let v = Sim.Stats.violation_steps s in
  if v > 0 then
    Printf.printf
      "[WARN] table_build: Pro-Temp served from this unguarded table on \
       paper_mix exceeds tmax in %d steps (peak %.4f C)\n"
      v (Sim.Stats.peak_temperature s);
  v

let served_stats r = r.served.Sim.Engine.stats

let check_reps env reps =
  let first = List.hd reps in
  List.iter
    (fun r ->
      check "table_build fills every cell"
        (r.fill.Protemp.Dense_table.cells = n_cells env);
      check "table_build: bit-identical table on every repetition"
        (cells_of r.table = cells_of first.table);
      check "table_build: completed + unfinished = tasks"
        (Sim.Stats.completed (served_stats r) + r.served.Sim.Engine.unfinished
        = Array.length env.serve_trace.Workload.Trace.tasks))
    reps;
  same "table_build feasible cells"
    (List.map (fun r -> r.fill.Protemp.Dense_table.feasible) reps);
  same "table_build serving steps"
    (List.map (fun r -> Sim.Stats.total_steps (served_stats r)) reps);
  same "table_build serving mean wait"
    (List.map (fun r -> Sim.Stats.mean_waiting (served_stats r)) reps);
  same "table_build serving energy"
    (List.map (fun r -> Sim.Stats.energy (served_stats r)) reps)

(* [reps] are (grid, repetition) pairs over the grids of [envs]. *)
let e2e envs reps ~setup_times =
  let per_grid =
    Array.to_list
      (Array.mapi
         (fun g env ->
           (g, env, List.filter_map (fun (h, r) -> if h = g then Some r else None) reps))
         envs)
  in
  let failed =
    List.fold_left
      (fun acc (_, env, rs) ->
        let bad = uncertified env (List.hd rs).table in
        check_reps env rs;
        ignore (hot_violations env (List.hd rs));
        acc + (bad * List.length rs))
      0 per_grid
  in
  check "table_build: every feasible cell certified by window_peak" (failed = 0);
  rate_metric "cells_per_s"
    (List.map (fun (g, r) -> (g, float_of_int (n_cells envs.(g)), r.build_s)) reps);
  rate_metric "steps_per_s"
    (List.map
       (fun (g, r) ->
         (g, float_of_int (Sim.Stats.total_steps (served_stats r)), r.engine_s))
       reps);
  metric "setup_s" "s" (median setup_times);
  let s = served_stats (snd (List.hd reps)) in
  metric "wait_mean_ms" "ms" (Sim.Stats.mean_waiting s *. 1e3);
  metric "energy_j" "J" (Sim.Stats.energy s);
  count "feasible_cells"
    (List.fold_left
       (fun a (_, _, rs) -> a + (List.hd rs).fill.Protemp.Dense_table.feasible)
       0 per_grid);
  (List.fold_left (fun a (g, _) -> a + n_cells envs.(g)) 0 reps, failed)

(* ------------------------------------------------------------------ *)
(* Traced run *)

(* Replay of the fill's row sweep through the public Model API, with
   the same previous-column warm seeds and per-row conic workspace as
   Dense_table.fill, timing each call and counting conic work. *)
type replay = {
  feasible : (int * int) list;
  conic : Convex.Conic.stats;
  solve_ms : float list;
  prepare_ms : float list;
  instantiate_us : float list;
  solve_words : float;
  solves : int;
  warm_hits : int;
  pruned : int;
}

let replay env =
  let conic = ref Convex.Conic.stats_zero in
  let feasible = ref [] and solve_ms = ref [] and prepare_ms = ref [] in
  let instantiate_us = ref [] and words = ref 0.0 in
  let solves = ref 0 and warm_hits = ref 0 and pruned = ref 0 in
  let cols = Array.length env.ftargets in
  Array.iteri
    (fun i tstart ->
      let prep_s, p =
        stage "protemp.model.prepare" (fun () ->
            Protemp.Model.prepare ~machine:env.machine ~spec:env.spec ~tstart)
      in
      prepare_ms := (prep_s *. 1e3) :: !prepare_ms;
      let bound = ref cols and warm = ref None and ws = ref None in
      for j = 0 to cols - 1 do
        if j >= !bound then incr pruned
        else begin
          let ftarget = env.ftargets.(j) in
          if !ws = None then begin
            let built = Protemp.Model.instantiate p ~ftarget in
            ws :=
              Some
                (Convex.Conic.make_workspace
                   ~kkt:
                     (`Blocks
                       (Protemp.Model.conic_blocks built.Protemp.Model.layout))
                   (Lazy.force built.Protemp.Model.conic))
          end;
          let inst_s, built =
            timed (fun () -> Protemp.Model.instantiate p ~ftarget)
          in
          instantiate_us := (inst_s *. 1e6) :: !instantiate_us;
          incr solves;
          if !warm <> None then incr warm_hits;
          let solve_s, outcome =
            stage "convex.conic.solve" (fun () ->
                let w0 = Gc.minor_words () in
                let o =
                  Protemp.Model.solve ?conic_ws:!ws ?start:!warm
                    ~conic_stats_into:conic built
                in
                words := !words +. (Gc.minor_words () -. w0);
                o)
          in
          solve_ms := (solve_s *. 1e3) :: !solve_ms;
          match outcome with
          | Protemp.Model.Feasible s ->
              feasible := (i, j) :: !feasible;
              warm := Some s.Protemp.Model.raw.Convex.Solve.x
          | Protemp.Model.Infeasible -> bound := j
        end
      done)
    env.tstarts;
  {
    feasible = List.rev !feasible;
    conic = !conic;
    solve_ms = !solve_ms;
    prepare_ms = !prepare_ms;
    instantiate_us = !instantiate_us;
    solve_words = !words;
    solves = !solves;
    warm_hits = !warm_hits;
    pruned = !pruned;
  }

(* One fill of a fresh grid at [domains], timed without to_table. *)
let timed_fill env ~domains =
  let d = fresh env in
  let s, _ = timed (fun () -> Protemp.Dense_table.fill ~domains d) in
  (s, Protemp.Dense_table.to_table ~domains d)

let traced env ~sizes =
  Span.enabled := false;
  let plain = rep env in
  Span.enabled := true;
  let t = rep env in
  check_reps env [ plain; t ];
  let rp = Span.with_ "table_build.replay" (fun () -> replay env) in
  let fs = t.fill in
  check "replay reproduces the fill's feasible set"
    (rp.feasible = feasible_set t.table);
  check "replay counts match the fill's solves, warm hits and pruned cells"
    (rp.solves = fs.Protemp.Dense_table.solves
    && rp.warm_hits = fs.Protemp.Dense_table.warm_hits
    && rp.pruned = fs.Protemp.Dense_table.pruned);
  (* 1- vs 2-domain fills, alternating which goes first. *)
  let pairs =
    List.init sizes.fill_pairs (fun k ->
        let one () = timed_fill env ~domains:1 in
        let two () = timed_fill env ~domains:2 in
        let (s1, t1), (s2, t2) =
          if k mod 2 = 0 then
            let a = one () in
            (a, two ())
          else
            let b = two () in
            (one (), b)
        in
        check "2-domain table bit-identical to the 1-domain table"
          (cells_of t1 = cells_of t2);
        (s1, s2))
  in
  let speedups = List.map (fun (s1, s2) -> s1 /. s2) pairs in
  let fill_s = median (List.map fst pairs) in
  let sum = List.fold_left ( +. ) 0.0 in
  let components =
    (sum rp.prepare_ms /. 1e3) +. (sum rp.instantiate_us /. 1e6)
    +. (sum rp.solve_ms /. 1e3)
  in
  let iters = rp.conic.Convex.Conic.iterations in
  count "convex.conic.solves" rp.solves;
  count "convex.conic.iterations" iters;
  metric "convex.conic.iters_per_solve" "count"
    (float_of_int iters /. float_of_int rp.solves);
  metric "convex.conic.ms_per_iteration" "ms" (sum rp.solve_ms /. float_of_int iters);
  metric "convex.conic.solve_ms_p50" "ms" (quantile rp.solve_ms 0.5);
  metric "convex.conic.solve_ms_p95" "ms" (quantile rp.solve_ms 0.95);
  count "convex.conic.unknown" rp.conic.Convex.Conic.unknown;
  metric "convex.conic.minor_words_per_solve" "words"
    (rp.solve_words /. float_of_int rp.solves);
  metric "protemp.model.prepare_ms" "ms" (median rp.prepare_ms);
  metric "protemp.model.instantiate_us" "us" (median rp.instantiate_us);
  metric "protemp.dense.fill_s" "s" fill_s;
  count "protemp.dense.warm_hits" fs.Protemp.Dense_table.warm_hits;
  count "protemp.dense.pruned" fs.Protemp.Dense_table.pruned;
  metric "protemp.dense.warm_hit_rate" "ratio"
    (float_of_int fs.Protemp.Dense_table.warm_hits
    /. float_of_int fs.Protemp.Dense_table.solves);
  metric "protemp.dense.pruned_frac" "ratio"
    (float_of_int fs.Protemp.Dense_table.pruned
    /. float_of_int fs.Protemp.Dense_table.cells);
  metric "protemp.dense.overhead_frac" "ratio" ((fill_s -. components) /. fill_s);
  count "protemp.dense.serve_violation_steps" (hot_violations env t);
  metric "protemp.table_store.write_ms" "ms" (t.write_s *. 1e3);
  metric "protemp.table_store.open_ms" "ms" (t.open_s *. 1e3);
  count "protemp.table_store.image_bytes" (Unix.stat env.store_path).Unix.st_size;
  metric "parallel.fill_speedup_2d" "ratio" (median speedups);
  metric "parallel.fill_speedup_2d_q1" "ratio" (quantile speedups 0.25);
  metric "parallel.fill_speedup_2d_q3" "ratio" (quantile speedups 0.75);
  let total r = r.build_s +. r.engine_s in
  metric "table_build.trace_overhead_frac" "ratio"
    ((total t -. total plain) /. total plain);
  (n_cells env * 2, uncertified env t.table)
