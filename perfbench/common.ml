(* Shared plumbing: input sizes, timing, order statistics, output
   checks and the metric list a run prints. *)

type sizes = {
  grid_rows : int;  (** table_build tstarts (27..100 C). *)
  grid_cols : int;  (** table_build ftargets (0.1..1 GHz). *)
  grids : int;  (** table_build jittered grids, filled in turn. *)
  check_tasks : int;  (** table_build serving check, web. *)
  hot_tasks : int;  (** table_build hot-row check, paper_mix. *)
  fleet_chips : int;
  fleet_tasks : int;  (** paper_mix, sized for 4 x chips cores. *)
  paper_tasks : int;  (** per mix; 3 mixes x 3 controllers. *)
  paper_tstarts : float array;  (** Offline.sweep grid for Pro-Temp. *)
  paper_ftargets : float array;
  setups : int;  (** set-up repetitions; setup_s is their median. *)
  fill_pairs : int;  (** traced run: 1- vs 2-domain fills. *)
}

let full =
  {
    grid_rows = 24;
    grid_cols = 16;
    grids = 4;
    check_tasks = 500_000;
    hot_tasks = 100_000;
    fleet_chips = 16;
    fleet_tasks = 250_000;
    paper_tasks = 200_000;
    paper_tstarts = Protemp.Offline.default_tstarts;
    paper_ftargets = Protemp.Offline.default_ftargets;
    setups = 5;
    fill_pairs = 4;
  }

let smoke =
  {
    grid_rows = 5;
    grid_cols = 4;
    grids = 2;
    check_tasks = 2_000;
    hot_tasks = 2_000;
    fleet_chips = 4;
    fleet_tasks = 4_000;
    paper_tasks = 2_000;
    paper_tstarts = [| 27.0; 60.0; 80.0; 100.0 |];
    paper_ftargets = [| 3e8; 6e8; 1e9 |];
    setups = 2;
    fill_pairs = 2;
  }

let describe s =
  Printf.sprintf
    "%d grids %dx%d, check_tasks %d, hot_tasks %d, fleet %d chips x %d tasks, \
     paper %d tasks x 3 mixes on a %dx%d sweep, %d set-ups"
    s.grids s.grid_rows s.grid_cols s.check_tasks s.hot_tasks s.fleet_chips s.fleet_tasks
    s.paper_tasks
    (Array.length s.paper_tstarts)
    (Array.length s.paper_ftargets)
    s.setups

(* ------------------------------------------------------------------ *)

let seconds_since t0 = float_of_int (Span.now_ns () - t0) /. 1e9

let timed f =
  let t0 = Span.now_ns () in
  let r = f () in
  (seconds_since t0, r)

(* Host speed.  The host is shared, and its speed for this kind of
   code drifts by up to a third over minutes as the other tenants' load
   comes and goes; a dependent arithmetic loop or a DRAM pointer chase
   barely notices, so the drift is in the shared core's ports and
   caches, not in the clock.  A fixed reference kernel (Array.sort
   of 60 000 floats, stdlib only, so no change to the program moves
   it) is timed right before and right after each timed piece of
   work, and [timed_host] scales the piece's time by [reference_s] over
   the kernel's mean time: the time the piece would have taken on a
   host that runs the kernel in [reference_s].  Only untraced runs
   scale ([host_scaling]); traced runs report raw times. *)
let reference_s = 0.020
let host_scaling = ref false

(* The kernel sorts a copy of a fixed float array in place; both arrays
   are allocated once, so it leaves the program's heap and peak_rss_mb
   alone. *)
let ref_floats =
  lazy
    (let st = Random.State.make [| 1 |] in
     Array.init 60_000 (fun _ -> Random.State.float st 1.0))

let ref_sorted = lazy (Array.copy (Lazy.force ref_floats))

let reference_kernel () =
  let src = Lazy.force ref_floats and a = Lazy.force ref_sorted in
  Array.blit src 0 a 0 (Array.length src);
  Array.sort Float.compare a;
  ignore (Sys.opaque_identity a)

(* Every kernel time, and the end of the last one: a piece that starts
   within a millisecond of the previous piece's kernel reuses it. *)
let reference_times = ref []
let last_reference = ref (min_int, nan)

let run_reference () =
  let s, () = timed reference_kernel in
  reference_times := s :: !reference_times;
  last_reference := (Span.now_ns (), s);
  s

let depth = ref 0

let timed_host f =
  if (not !host_scaling) || !depth > 0 then timed f
  else begin
    let t_end, last = !last_reference in
    let r0 = if Span.now_ns () - t_end < 1_000_000 then last else run_reference () in
    incr depth;
    let s, r = Fun.protect ~finally:(fun () -> decr depth) (fun () -> timed f) in
    let r1 = run_reference () in
    (s *. reference_s /. ((r0 +. r1) /. 2.0), r)
  end

(* Linear-interpolation quantile over a list of samples. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = Stdlib.min (truncate pos) (n - 1) in
      let frac = pos -. float_of_int i in
      if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)

let median xs = quantile xs 0.5

(* Peak resident set of this process (VmHWM), MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  let v = scan () in
  close_in ic;
  v

(* ------------------------------------------------------------------ *)
(* Output checks: every failure is printed, turns the result's
   "correct" to false and makes the run exit 1. *)

let failures = ref []

let check what ok =
  if not ok then begin
    Printf.printf "[FAIL] %s\n%!" what;
    failures := what :: !failures
  end

(* A deterministic figure must read the same on every repetition. *)
let same what reps =
  match reps with
  | [] -> ()
  | x :: rest ->
      check
        (Printf.sprintf "%s repeats exactly across repetitions" what)
        (List.for_all (fun y -> y = x) rest)

(* ------------------------------------------------------------------ *)
(* Metrics, in the order printed *)

type value = Int of int | Float of float

let metrics : (string * value * string) list ref = ref []
let metric name unit v = metrics := (name, Float v, unit) :: !metrics
let count name v = metrics := (name, Int v, "count") :: !metrics

(* A host-timed rate over repetitions of deterministic work.  Each
   sample is (group, work, seconds from [timed_host]), and every
   repetition of a group does the same work.  The rate is the work of
   one pass over the groups divided by the sum of each group's median
   time.  Every sample is printed. *)
let rate_metric name samples =
  Printf.printf "  # %s samples:%s\n" name
    (String.concat ""
       (List.map (fun (g, w, t) -> Printf.sprintf " %d:%.6g" g (w /. t)) samples));
  let groups = List.sort_uniq compare (List.map (fun (g, _, _) -> g) samples) in
  let work, secs =
    List.fold_left
      (fun (w, s) g ->
        let mine = List.filter (fun (h, _, _) -> h = g) samples in
        let _, wg, _ = List.hd mine in
        (w +. wg, s +. median (List.map (fun (_, _, t) -> t) mine)))
      (0.0, 0.0) groups
  in
  metric name "1/s" (work /. secs)

let print_host () =
  if !host_scaling then
    Printf.printf
      "  # host speed: reference kernel median %.3f ms over %d runs; times \
       scaled to %.0f ms\n"
      (median !reference_times *. 1e3)
      (List.length !reference_times)
      (reference_s *. 1e3)

let json_number = function
  | Int i -> string_of_int i
  | Float f when Float.is_integer f && Float.abs f < 1e15 ->
      Printf.sprintf "%.1f" f
  | Float f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Float _ -> "null"

let print_result ~attempted ~failed =
  let ms = List.rev !metrics in
  List.iter
    (fun (n, v, u) -> Printf.printf "  %-44s %s %s\n" n (json_number v) u)
    ms;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failures = []) attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n
              (json_number v) u)
          ms))

(* ------------------------------------------------------------------ *)

let cells_of t =
  let rows = Array.length (Protemp.Table.tstarts t)
  and cols = Array.length (Protemp.Table.ftargets t) in
  List.concat
    (List.init rows (fun i ->
         List.init cols (fun j -> (i, j, Protemp.Table.cell t i j))))

let feasible_set t =
  List.filter_map
    (fun (i, j, c) ->
      match c with
      | Protemp.Table.Frequencies _ -> Some (i, j)
      | Protemp.Table.Infeasible -> None)
    (cells_of t)
