(* The Pro-Temp benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   With --trace 0 it sets the workload up [sizes.setups] times, then
   repeats the workload for S seconds at 1 domain with tracing off and
   prints the end-to-end metrics: rates from the median repetition and
   setup_s from the median set-up, every time scaled to the reference
   host speed (Common.timed_host).  With --trace 1 it traces all three
   workloads, since each layer is exercised by only one or two of them,
   and prints the per-layer metrics; it also writes a Chrome trace-event
   file into --out.
   --smoke shrinks every input so a run takes seconds.

   Every run checks its outputs; a failed check prints [FAIL], the
   result line reports "correct": false and the exit code is 1. *)

open Common

let workloads = [ "table_build"; "fleet_serve"; "paper_eval" ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  sizes : sizes;
  out_dir : string;
}

let parse () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and small = ref false and out_dir = ref ".bench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " table_build | fleet_serve | paper_eval");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 1 = traced per-layer run");
      ("--smoke", Arg.Set small, " reduced sizes");
      ("--out", Arg.Set_string out_dir, " directory for store images and traces");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    sizes = (if !small then smoke else full);
    out_dir = !out_dir;
  }

(* [n] set-ups, each timed; returns the times and the last env.  Each
   env is dropped before the next set-up starts, so the measured work
   never runs with several traces' worth of heap for the collector to
   mark. *)
let set_up n f =
  let times = ref [] and last = ref None in
  for _ = 1 to n do
    last := None;
    Gc.full_major ();
    let s, env = timed_host f in
    times := s :: !times;
    last := Some env
  done;
  (!times, Option.get !last)

(* Call [f 0], [f 1], ... at least [min_reps] times, then for as long
   as another call as long as the longest so far would still end within
   [seconds]. *)
let repeat ?(min_reps = 2) seconds f =
  let t0 = Span.now_ns () in
  let rec go acc n longest =
    if n >= min_reps && seconds_since t0 +. longest > seconds then List.rev acc
    else begin
      Gc.full_major ();
      let s, r = timed (fun () -> f n) in
      go (r :: acc) (n + 1) (Float.max longest s)
    end
  in
  go [] 0 0.0

let untraced a =
  let s = a.sizes in
  match a.workload with
  | "table_build" ->
      let setup_times, env =
        set_up s.setups (fun () ->
            Table_build.setup ~sizes:s ~seed:a.seed ~out_dir:a.out_dir)
      in
      let n = Array.length env in
      Table_build.e2e env ~setup_times
        (repeat ~min_reps:(2 * n) a.seconds (fun k ->
             (k mod n, Table_build.rep env.(k mod n))))
  | "fleet_serve" ->
      let setup_times, env =
        set_up s.setups (fun () ->
            Fleet_serve.setup ~sizes:s ~seed:a.seed ~out_dir:a.out_dir)
      in
      Fleet_serve.e2e env ~setup_times
        (repeat a.seconds (fun _ -> Fleet_serve.rep env))
  | _ ->
      let setup_times, env =
        set_up s.setups (fun () -> Paper_eval.setup ~sizes:s ~seed:a.seed)
      in
      Paper_eval.e2e env ~setup_times
        (repeat a.seconds (fun _ -> Paper_eval.rep env))

let unattributed w =
  match Span.named w with
  | s :: _ ->
      metric (w ^ ".unattributed_frac") "ratio"
        (float_of_int (Span.self_ns s) /. float_of_int (Span.duration s))
  | [] -> ()

let traced a =
  let s = a.sizes in
  Span.enabled := true;
  let env = Table_build.setup ~sizes:s ~seed:a.seed ~out_dir:a.out_dir in
  let a1, f1 = Table_build.traced env.(0) ~sizes:s in
  Span.enabled := true;
  let env = Fleet_serve.setup ~sizes:s ~seed:a.seed ~out_dir:a.out_dir in
  let a2, f2 = Fleet_serve.traced env in
  Span.enabled := true;
  let env = Paper_eval.setup ~sizes:s ~seed:a.seed in
  let a3, f3 = Paper_eval.traced env in
  List.iter unattributed workloads;
  metric "workload.trace_generate_s" "s"
    (float_of_int (Span.total_ns "workload.trace_generate") /. 1e9);
  let path =
    Filename.concat a.out_dir (Printf.sprintf "trace-%s-%d.json" a.workload a.seed)
  in
  Span.write_chrome ~path
    ~metadata:
      [
        ("seed", string_of_int a.seed);
        ("sizes", describe s);
        ("ocaml", Sys.ocaml_version);
        ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
      ];
  Printf.printf "chrome trace: %s\n" path;
  (a1 + a2 + a3, f1 + f2 + f3)

let () =
  let a = parse () in
  if not (Sys.file_exists a.out_dir) then Sys.mkdir a.out_dir 0o755;
  Printf.printf
    "# workload %s, seed %d, %s, %g s, trace %b; ocaml %s, \
     recommended_domain_count %d\n%!"
    a.workload a.seed (describe a.sizes) a.seconds a.trace Sys.ocaml_version
    (Domain.recommended_domain_count ());
  let attempted, failed =
    if a.trace then traced a
    else begin
      host_scaling := true;
      let r = untraced a in
      print_host ();
      metric "peak_rss_mb" "MB" (peak_rss_mb ());
      r
    end
  in
  print_result ~attempted ~failed;
  if !failures <> [] then exit 1
