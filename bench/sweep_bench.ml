(* Offline-sweep benchmark: times the Phase-1 table build across
   solvers (primal-dual conic vs the reference log-barrier), domain
   counts and warm-start modes, verifies the tables agree, and emits
   BENCH_sweep.json (cells/sec, solver work counters, single-solve
   latency) so the perf trajectory can be tracked across PRs.

   Gates (full mode): the conic and barrier tables must agree to
   1e-6 fmax on the whole grid, the conic warm/cold time ratio must
   stay under 0.8, and one cold conic solve must either come in under
   4 ms or beat the same-machine barrier by 10x.  In FAST mode (tiny
   grid, wired into `dune runtest` as a smoke test) only the
   correctness gates run — timing on a seconds-long grid is noise.

   Run with:  dune exec bench/sweep_bench.exe            (full grid)
              PROTEMP_BENCH_FAST=1 dune exec bench/sweep_bench.exe *)

let fast = Sys.getenv_opt "PROTEMP_BENCH_FAST" <> None

let machine = Sim.Machine.niagara ()

let spec =
  {
    Protemp.Spec.default with
    Protemp.Spec.constraint_stride = (if fast then 4 else 2);
  }

let tstarts =
  if fast then [| 27.0; 85.0 |]
  else [| 27.0; 40.0; 55.0; 70.0; 85.0; 100.0 |]

let ftargets =
  if fast then [| 2e8; 5e8; 8e8 |]
  else Array.init 10 (fun i -> float_of_int (i + 1) *. 1e8)

let cells = Array.length tstarts * Array.length ftargets

let solver_name = function `Conic -> "conic" | `Barrier -> "barrier"

type run = {
  solver : [ `Conic | `Barrier ];
  domains : int;
  warm_starts : bool;
  seconds : float;
  table : Protemp.Table.t;
  stats : Protemp.Offline.sweep_stats;
}

let time_sweep ~solver ~domains ~warm_starts =
  let t0 = Unix.gettimeofday () in
  let table, stats =
    Protemp.Offline.sweep_with_stats ~machine ~spec ~solver ~domains
      ~warm_starts ~tstarts ~ftargets ()
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let work =
    match solver with
    | `Conic -> stats.Protemp.Offline.conic.Convex.Conic.iterations
    | `Barrier -> stats.Protemp.Offline.barrier.Convex.Barrier.newton_iterations
  in
  Printf.printf
    "  solver=%-7s domains=%d warm_starts=%-5b: %7.2f s  (%.2f cells/s, %d \
     iters)\n\
     %!"
    (solver_name solver) domains warm_starts seconds
    (float_of_int cells /. seconds)
    work;
  { solver; domains; warm_starts; seconds; table; stats }

(* Tolerances are in Hz.  Same-configuration runs must agree
   essentially bit-for-bit (1e-9 on every core).  Across solvers the
   comparison is two-level: the {e optimum} — the mean frequency,
   pinned by the binding throughput floor and the strictly convex
   power objective — must agree to [mean_tol] (1e-6 fmax), while the
   {e per-core split} sits in a nearly-flat valley (cores couple only
   through the shared floor and thermal rows), where two independent
   algorithms land within [core_tol] (1e-4 fmax) of each other.  The
   table consumer depends on the former: the guarantee audits re-check
   every stored vector against the thermal envelope directly. *)
let tables_equal ?(mean_tol = 1e-9) ?(core_tol = 1e-9) a b =
  let ta = Protemp.Table.tstarts a and fa = Protemp.Table.ftargets a in
  Array.for_all
    (fun i ->
      Array.for_all
        (fun j ->
          match (Protemp.Table.cell a i j, Protemp.Table.cell b i j) with
          | Protemp.Table.Infeasible, Protemp.Table.Infeasible -> true
          | Protemp.Table.Frequencies x, Protemp.Table.Frequencies y ->
              abs_float (Linalg.Vec.mean x -. Linalg.Vec.mean y) <= mean_tol
              && Linalg.Vec.approx_equal ~tol:core_tol x y
          | Protemp.Table.Infeasible, Protemp.Table.Frequencies _
          | Protemp.Table.Frequencies _, Protemp.Table.Infeasible -> false)
        (Array.init (Array.length fa) Fun.id))
    (Array.init (Array.length ta) Fun.id)

(* Latency of one cold solve of a representative interior cell
   (model construction excluded), best of [reps]. *)
let single_solve_seconds ~solver =
  let built =
    Protemp.Model.build ~machine ~spec ~tstart:70.0 ~ftarget:5e8
  in
  (* Force the shared lazies (conic packing / Jacobian compilation)
     outside the timed region, like a sweep row does. *)
  (match Protemp.Model.solve ~solver built with
  | Protemp.Model.Feasible _ -> ()
  | Protemp.Model.Infeasible -> failwith "single-solve cell infeasible");
  let reps = 3 in
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    (match Protemp.Model.solve ~solver built with
    | Protemp.Model.Feasible _ -> ()
    | Protemp.Model.Infeasible -> failwith "single-solve cell infeasible");
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

(* The README quickstart cell, solved both ways: the cheap end-to-end
   agreement check that runs even in FAST mode. *)
let quickstart_agreement () =
  let built = Protemp.Model.build ~machine ~spec ~tstart:85.0 ~ftarget:600e6 in
  match
    (Protemp.Model.solve ~solver:`Conic built,
     Protemp.Model.solve ~solver:`Barrier built)
  with
  | Protemp.Model.Feasible c, Protemp.Model.Feasible b ->
      let dmean =
        abs_float
          (Linalg.Vec.mean c.Protemp.Model.frequencies
          -. Linalg.Vec.mean b.Protemp.Model.frequencies)
      and dcore =
        Linalg.Vec.norm_inf
          (Linalg.Vec.sub c.Protemp.Model.frequencies
             b.Protemp.Model.frequencies)
      in
      Printf.printf
        "  quickstart cell (85C, 600 MHz): solvers within %.2e Hz on the mean, \
         %.2e Hz per core\n%!"
        dmean dcore;
      dmean <= 1e-6 *. machine.Sim.Machine.fmax
      && dcore <= 1e-4 *. machine.Sim.Machine.fmax
  | _ -> false

let json_of_stats (s : Protemp.Offline.sweep_stats) =
  let b = s.Protemp.Offline.barrier and c = s.Protemp.Offline.conic in
  Printf.sprintf
    "{\"solves\": %d, \"barrier\": {\"centering_steps\": %d, \
     \"newton_iterations\": %d, \"backtracks\": %d, \"factorizations\": %d, \
     \"jitter_retries\": %d}, \"conic\": {\"iterations\": %d, \
     \"predictor_steps\": %d, \"corrector_steps\": %d, \"factorizations\": \
     %d, \"jitter_retries\": %d, \"optimal\": %d, \"primal_infeasible\": %d, \
     \"dual_infeasible\": %d, \"unknown\": %d, \"relaxed_optimal\": %d}}"
    s.Protemp.Offline.solves b.Convex.Barrier.centering_steps
    b.Convex.Barrier.newton_iterations b.Convex.Barrier.backtracks
    b.Convex.Barrier.factorizations b.Convex.Barrier.jitter_retries
    c.Convex.Conic.iterations c.Convex.Conic.predictor_steps
    c.Convex.Conic.corrector_steps c.Convex.Conic.factorizations
    c.Convex.Conic.jitter_retries c.Convex.Conic.optimal
    c.Convex.Conic.primal_infeasible c.Convex.Conic.dual_infeasible
    c.Convex.Conic.unknown c.Convex.Conic.relaxed_optimal

let () =
  let hw = Parallel.Pool.default_domains () in
  Printf.printf
    "Offline sweep benchmark%s: %dx%d grid (stride %d), %d domain(s) available\n\
     %!"
    (if fast then " (FAST mode)" else "")
    (Array.length tstarts) (Array.length ftargets)
    spec.Protemp.Spec.constraint_stride hw;
  (* Barrier cold first (the pre-conic behaviour and the agreement
     reference), then conic cold, conic warm (the default
     configuration) at 1 domain and at the hardware count; in FAST
     mode also an oversubscribed 4-domain run so the parallel path is
     exercised even on small machines. *)
  let domain_counts =
    List.sort_uniq compare ([ 1; hw ] @ if fast then [ 4 ] else [])
  in
  let barrier_cold =
    time_sweep ~solver:`Barrier ~domains:1 ~warm_starts:false
  in
  let conic_cold = time_sweep ~solver:`Conic ~domains:1 ~warm_starts:false in
  let runs =
    barrier_cold :: conic_cold
    :: List.map
         (fun domains -> time_sweep ~solver:`Conic ~domains ~warm_starts:true)
         domain_counts
  in
  let warm_tables =
    List.filter_map
      (fun r -> if r.warm_starts then Some r.table else None)
      runs
  in
  let identical =
    match warm_tables with
    | [] -> true
    | first :: rest -> List.for_all (tables_equal first) rest
  in
  let fmax = machine.Sim.Machine.fmax in
  let solvers_agree =
    tables_equal ~mean_tol:(1e-6 *. fmax) ~core_tol:(1e-4 *. fmax)
      barrier_cold.table conic_cold.table
  in
  let conic_speedup = barrier_cold.seconds /. conic_cold.seconds in
  Printf.printf "  conic speedup vs barrier (cold, 1 domain): %.2fx\n%!"
    conic_speedup;
  let single_barrier = single_solve_seconds ~solver:`Barrier in
  let single_conic = single_solve_seconds ~solver:`Conic in
  let single_speedup = single_barrier /. single_conic in
  Printf.printf
    "  single solve: barrier %.1f ms, conic %.1f ms (%.2fx)\n%!"
    (single_barrier *. 1e3) (single_conic *. 1e3) single_speedup;
  let quickstart_ok = quickstart_agreement () in
  let sequential_warm =
    List.find (fun r -> r.warm_starts && r.domains = 1) runs
  in
  (* Warm starts are on by default in [Offline.sweep]: the conic
     solver restarts the homogeneous embedding from the neighbouring
     column's optimum at a reduced initial mu.  The gated ratio is
     solver work (factorizations — one per iteration, so the metric
     is exact and machine-independent), because the wall-clock ratio
     on a sub-second grid moves +-10% with scheduler noise and a CI
     gate on it would flap; the seconds ratio is still reported for
     the audit trail. *)
  let warm_fact =
    sequential_warm.stats.Protemp.Offline.conic.Convex.Conic.factorizations
  in
  let cold_fact =
    conic_cold.stats.Protemp.Offline.conic.Convex.Conic.factorizations
  in
  let warm_vs_cold = float_of_int warm_fact /. float_of_int cold_fact in
  let warm_vs_cold_seconds =
    sequential_warm.seconds /. conic_cold.seconds
  in
  Printf.printf
    "  warm vs cold (conic, 1 domain): work ratio %.3f (%d vs %d \
     factorizations), time ratio %.2f — warm starts on by default\n\
     %!"
    warm_vs_cold warm_fact cold_fact warm_vs_cold_seconds;
  (* ---------------------------------------------------------------- *)
  (* The dense-table pipeline (DESIGN.md section 6h): memoized fill
     with neighbour warm starts and frontier pruning, export to the
     mmap-able serving format, and the two serving paths (raw
     lookup_into vs certified interpolation).  Full mode runs the
     production-scale 100x100 grid; FAST mode shrinks to 3x5 but walks
     the same pipeline end to end. *)
  let dense_spec =
    { Protemp.Spec.default with Protemp.Spec.constraint_stride = 4 }
  in
  let dense_tstarts =
    if fast then [| 40.0; 60.0; 80.0 |]
    else Array.init 100 (fun i -> 27.0 +. (73.0 *. float_of_int i /. 99.0))
  in
  let dense_ftargets =
    if fast then Array.init 5 (fun j -> 2e8 +. (1e8 *. float_of_int j))
    else Array.init 100 (fun j -> 1e8 +. (9e8 *. float_of_int j /. 99.0))
  in
  let dense_rows = Array.length dense_tstarts in
  let dense_cols = Array.length dense_ftargets in
  let dense_cells = dense_rows * dense_cols in
  Printf.printf "Dense pipeline: %dx%d grid (%d cells, stride %d)\n%!"
    dense_rows dense_cols dense_cells dense_spec.Protemp.Spec.constraint_stride;
  let dense =
    Protemp.Dense_table.create ~machine ~spec:dense_spec
      ~tstarts:dense_tstarts ~ftargets:dense_ftargets ()
  in
  let t0 = Unix.gettimeofday () in
  let fstats = Protemp.Dense_table.fill ~domains:hw dense in
  let fill_seconds = Unix.gettimeofday () -. t0 in
  let dense_cells_per_sec = float_of_int dense_cells /. fill_seconds in
  let warm_hit_rate =
    float_of_int fstats.Protemp.Dense_table.warm_hits
    /. float_of_int (max 1 fstats.Protemp.Dense_table.solves)
  in
  let pruned_fraction =
    float_of_int fstats.Protemp.Dense_table.pruned /. float_of_int dense_cells
  in
  Printf.printf
    "  fill: %7.2f s (%.1f cells/s), %d solves, warm hit rate %.3f, %d \
     pruned (%.1f%%), %d feasible\n\
     %!"
    fill_seconds dense_cells_per_sec fstats.Protemp.Dense_table.solves
    warm_hit_rate fstats.Protemp.Dense_table.pruned
    (100.0 *. pruned_fraction)
    fstats.Protemp.Dense_table.feasible;
  let dense_table = Protemp.Dense_table.to_table dense in
  (* A second fresh fill at a different domain count must reproduce
     the grid bit for bit (CSV is %.17g, i.e. exact). *)
  let invariance_domains = if hw = 2 then 4 else 2 in
  let dense_identical =
    let d2 =
      Protemp.Dense_table.create ~machine ~spec:dense_spec
        ~tstarts:dense_tstarts ~ftargets:dense_ftargets ()
    in
    ignore (Protemp.Dense_table.fill ~domains:invariance_domains d2);
    Protemp.Table.to_csv dense_table
    = Protemp.Table.to_csv (Protemp.Dense_table.to_table d2)
  in
  Printf.printf "  fill identical at %d vs %d domains: %b\n%!" hw
    invariance_domains dense_identical;
  let store_path = Filename.temp_file "protemp_dense" ".ptbl" in
  let t0 = Unix.gettimeofday () in
  (* v2 images record the ceilings the cells were certified against. *)
  Protemp.Table_store.write ~core_fmax:machine.Sim.Machine.core_fmax
    dense_table store_path;
  let store_write_seconds = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let store = Protemp.Table_store.open_file store_path in
  let store_open_seconds = Unix.gettimeofday () -. t0 in
  let store_bytes = (Unix.stat store_path).Unix.st_size in
  Printf.printf
    "  store: %d bytes, write %.2f ms, mmap open %.3f ms\n%!" store_bytes
    (store_write_seconds *. 1e3)
    (store_open_seconds *. 1e3);
  (* Deterministic pseudo-random query stream over (and slightly past)
     the grid envelope, shared by both serving paths. *)
  let queries =
    let state = ref 123456789 in
    let next () =
      state := ((1103515245 * !state) + 12345) land 0x3FFFFFFF;
      float_of_int !state /. float_of_int 0x40000000
    in
    let tmin = dense_tstarts.(0) and tmax = dense_tstarts.(dense_rows - 1) in
    let fmin = dense_ftargets.(0) and fmax' = dense_ftargets.(dense_cols - 1) in
    Array.init 4096 (fun _ ->
        ( tmin -. 5.0 +. (next () *. (tmax -. tmin +. 10.0)),
          fmin +. (next () *. ((fmax' -. fmin) *. 1.05)) ))
  in
  let lookup_buf = Linalg.Vec.zeros (Protemp.Table_store.n_cores store) in
  let n_store_lookups = if fast then 20_000 else 2_000_000 in
  let t0 = Unix.gettimeofday () in
  for k = 0 to n_store_lookups - 1 do
    let temperature, required = queries.(k land 4095) in
    ignore
      (Protemp.Table_store.lookup_into store ~temperature ~required
         ~into:lookup_buf)
  done;
  let store_lookups_per_sec =
    float_of_int n_store_lookups /. (Unix.gettimeofday () -. t0)
  in
  let n_interp = if fast then 200 else 2_000 in
  let interp_served = ref 0 in
  let t0 = Unix.gettimeofday () in
  for k = 0 to n_interp - 1 do
    let temperature, required = queries.(k land 4095) in
    match Protemp.Dense_table.lookup dense ~temperature ~required with
    | `Interpolated _ | `Clamped _ -> incr interp_served
    | `None -> ()
  done;
  let interp_lookups_per_sec =
    float_of_int n_interp /. (Unix.gettimeofday () -. t0)
  in
  Sys.remove store_path;
  Printf.printf
    "  serving: %.2e store lookups/s (mmap, alloc-free), %.1f certified \
     interpolated lookups/s (%d/%d served)\n\
     %!"
    store_lookups_per_sec interp_lookups_per_sec !interp_served n_interp;
  (* ---------------------------------------------------------------- *)
  (* Heterogeneous grid (the platform refactor, DESIGN.md 6i): the
     same Phase-1 sweep on the asymmetric big.LITTLE machine — per-core
     frequency bounds and power laws flow through Model and both
     solver backends.  Correctness gates (solver agreement, every
     stored frequency under its own core's ceiling) run in both modes;
     FAST shrinks the grid like everywhere else. *)
  let het_machine = Sim.Machine.biglittle () in
  let het_tstarts =
    if fast then [| 50.0; 80.0 |] else [| 27.0; 40.0; 55.0; 70.0; 85.0 |]
  in
  let het_ftargets =
    if fast then [| 1e8; 3e8 |]
    else Array.init 6 (fun i -> float_of_int (i + 1) *. 1e8)
  in
  let het_cells = Array.length het_tstarts * Array.length het_ftargets in
  Printf.printf "Heterogeneous grid (biglittle): %dx%d grid\n%!"
    (Array.length het_tstarts) (Array.length het_ftargets);
  let het_sweep solver =
    let t0 = Unix.gettimeofday () in
    let table =
      Protemp.Offline.sweep ~solver ~machine:het_machine ~spec ~domains:hw
        ~tstarts:het_tstarts ~ftargets:het_ftargets ()
    in
    let seconds = Unix.gettimeofday () -. t0 in
    Printf.printf "  solver=%-7s: %7.2f s (%.2f cells/s)\n%!"
      (solver_name solver) seconds
      (float_of_int het_cells /. seconds);
    (table, seconds)
  in
  let het_conic, het_conic_seconds = het_sweep `Conic in
  let het_barrier, het_barrier_seconds = het_sweep `Barrier in
  let het_fmax = het_machine.Sim.Machine.fmax in
  let het_agree =
    tables_equal ~mean_tol:(1e-6 *. het_fmax) ~core_tol:(1e-4 *. het_fmax)
      het_barrier het_conic
  in
  let het_caps_ok =
    let ok = ref true in
    let check table =
      Array.iteri
        (fun i _ ->
          Array.iteri
            (fun j _ ->
              match Protemp.Table.cell table i j with
              | Protemp.Table.Infeasible -> ()
              | Protemp.Table.Frequencies f ->
                  Array.iteri
                    (fun c hz ->
                      if hz > het_machine.Sim.Machine.core_fmax.(c) +. 1e-3
                      then ok := false)
                    f)
            (Protemp.Table.ftargets table))
        (Protemp.Table.tstarts table)
    in
    check het_conic;
    check het_barrier;
    !ok
  in
  let het_feasible =
    let n = ref 0 in
    Array.iteri
      (fun i _ ->
        Array.iteri
          (fun j _ ->
            match Protemp.Table.cell het_conic i j with
            | Protemp.Table.Frequencies _ -> incr n
            | Protemp.Table.Infeasible -> ())
          (Protemp.Table.ftargets het_conic))
      (Protemp.Table.tstarts het_conic);
    !n
  in
  Printf.printf
    "  solvers agree: %b, per-core caps respected: %b, %d/%d feasible\n%!"
    het_agree het_caps_ok het_feasible het_cells;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"grid\": {\"tstarts\": %d, \"ftargets\": %d, \"cells\": %d, \
        \"constraint_stride\": %d, \"fast\": %b},\n"
       (Array.length tstarts) (Array.length ftargets) cells
       spec.Protemp.Spec.constraint_stride fast);
  Buffer.add_string buf
    (Printf.sprintf "  \"available_domains\": %d,\n" hw);
  Buffer.add_string buf "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"solver\": \"%s\", \"domains\": %d, \"warm_starts\": %b, \
            \"seconds\": %.3f, \"cells_per_sec\": %.3f, \
            \"speedup_vs_sequential_warm\": %.3f, \"counters\": %s}%s\n"
           (solver_name r.solver) r.domains r.warm_starts r.seconds
           (float_of_int cells /. r.seconds)
           (sequential_warm.seconds /. r.seconds)
           (json_of_stats r.stats)
           (if i = List.length runs - 1 then "" else ",")))
    runs;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"single_solve\": {\"barrier_ms\": %.2f, \"conic_ms\": %.2f, \
        \"conic_speedup\": %.2f},\n"
       (single_barrier *. 1e3) (single_conic *. 1e3) single_speedup);
  Buffer.add_string buf
    (Printf.sprintf "  \"conic_speedup_vs_barrier\": %.3f,\n" conic_speedup);
  Buffer.add_string buf
    (Printf.sprintf "  \"solvers_agree_1e6\": %b,\n" solvers_agree);
  Buffer.add_string buf
    (Printf.sprintf "  \"quickstart_agree_1e6\": %b,\n" quickstart_ok);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"warm_vs_cold_factorizations\": %.3f, \"warm_vs_cold_seconds\": %.3f, \"warm_starts_default\": true,\n"
       warm_vs_cold warm_vs_cold_seconds);
  Buffer.add_string buf
    (Printf.sprintf "  \"identical_across_domains\": %b,\n" identical);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"dense\": {\"rows\": %d, \"cols\": %d, \"cells\": %d, \
        \"constraint_stride\": %d, \"fill_seconds\": %.3f, \
        \"cells_per_sec\": %.3f, \"solves\": %d, \"warm_hits\": %d, \
        \"warm_hit_rate\": %.3f, \"pruned\": %d, \"pruned_fraction\": %.3f, \
        \"feasible\": %d, \"identical_across_domains\": %b, \"store\": \
        {\"file_bytes\": %d, \"write_ms\": %.3f, \"mmap_open_ms\": %.3f, \
        \"lookups_per_sec\": %.0f}, \"interpolated_lookups_per_sec\": %.1f, \
        \"interpolated_served_fraction\": %.3f},\n"
       dense_rows dense_cols dense_cells
       dense_spec.Protemp.Spec.constraint_stride fill_seconds
       dense_cells_per_sec fstats.Protemp.Dense_table.solves
       fstats.Protemp.Dense_table.warm_hits warm_hit_rate
       fstats.Protemp.Dense_table.pruned pruned_fraction
       fstats.Protemp.Dense_table.feasible dense_identical store_bytes
       (store_write_seconds *. 1e3)
       (store_open_seconds *. 1e3)
       store_lookups_per_sec interp_lookups_per_sec
       (float_of_int !interp_served /. float_of_int n_interp));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"heterogeneous\": {\"platform\": \"biglittle\", \"rows\": %d, \
        \"cols\": %d, \"cells\": %d, \"conic_seconds\": %.3f, \
        \"barrier_seconds\": %.3f, \"solvers_agree_1e6\": %b, \
        \"per_core_caps_respected\": %b, \"feasible\": %d}\n"
       (Array.length het_tstarts) (Array.length het_ftargets) het_cells
       het_conic_seconds het_barrier_seconds het_agree het_caps_ok
       het_feasible);
  Buffer.add_string buf "}\n";
  let oc = open_out "BENCH_sweep.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_sweep.json\n";
  if not identical then begin
    Printf.printf "FAIL: tables differ across domain counts\n";
    exit 1
  end;
  if not solvers_agree then begin
    Printf.printf "FAIL: conic and barrier tables disagree (>1e-6 fmax)\n";
    exit 1
  end;
  if not quickstart_ok then begin
    Printf.printf "FAIL: quickstart cell disagrees across solvers\n";
    exit 1
  end;
  if not dense_identical then begin
    Printf.printf "FAIL: dense fill differs across domain counts\n";
    exit 1
  end;
  if not het_agree then begin
    Printf.printf
      "FAIL: heterogeneous conic and barrier tables disagree (>1e-6 fmax)\n";
    exit 1
  end;
  if not het_caps_ok then begin
    Printf.printf
      "FAIL: heterogeneous table stores a frequency above its core's ceiling\n";
    exit 1
  end;
  if het_feasible = 0 then begin
    Printf.printf "FAIL: heterogeneous grid has no feasible cells\n";
    exit 1
  end;
  (* The neighbour-seeding design target: most solves of a dense fill
     must ride a warm start (only each row's leading feasible cell is
     cold).  Gated in both modes — the rate is a count ratio, immune
     to timing noise. *)
  if warm_hit_rate <= 0.5 then begin
    Printf.printf "FAIL: dense warm-start hit rate %.3f <= 0.5\n"
      warm_hit_rate;
    exit 1
  end;
  if not fast then begin
    if warm_vs_cold >= 0.8 then begin
      Printf.printf
        "FAIL: warm starts no longer a win (work ratio %.3f >= 0.8)\n"
        warm_vs_cold;
      exit 1
    end;
    if single_conic > 4e-3 && single_speedup < 10.0 then begin
      Printf.printf
        "FAIL: single conic solve %.1f ms (> 4 ms) and only %.1fx vs \
         barrier (< 10x)\n"
        (single_conic *. 1e3) single_speedup;
      exit 1
    end;
    if dense_cells_per_sec < 300.0 then begin
      Printf.printf "FAIL: dense fill %.1f cells/s < 300\n"
        dense_cells_per_sec;
      exit 1
    end
  end;
  Printf.printf
    "tables identical across domain counts and solvers agree: ok\n"
