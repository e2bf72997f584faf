(* In-memory tracing for the benchmark's traced run.

   Spans wrap the benchmark's own calls into each library layer: each
   has a name, a start and end on the monotonic clock, its own id and
   the id of the span that was open when it began.  Hot callbacks
   (controller [decide], balancer and core [choose]) fire millions of
   times per run, so they are aggregated instead: a call count, a
   nanosecond sum and a geometric histogram per callback.  Nothing
   here records anything unless [enabled] is set, and the untraced
   passes never wrap a callback at all. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  start_ns : int;
  end_ns : int;
  hot_ns : int;  (* aggregated callback time inside the span *)
}

(* Set by the traced run around the passes it traces. *)
let enabled = ref false
let spans : span list ref = ref []
let open_stack : int list ref = ref []
let next_id = ref 0

(* Total callback time recorded so far, across every aggregate: a span
   snapshots it at start so its self time can exclude callbacks. *)
let hot_total = ref 0

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    open_stack := id :: !open_stack;
    let hot0 = !hot_total in
    let start_ns = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let end_ns = now_ns () in
        open_stack := List.tl !open_stack;
        spans :=
          { id; name; parent; start_ns; end_ns; hot_ns = !hot_total - hot0 }
          :: !spans)
      f
  end

let all () = List.rev !spans
let duration s = s.end_ns - s.start_ns

(* Self time: the span's duration minus its direct children and minus
   the callback time that ran inside it but outside those children. *)
let self_ns s =
  let kids = List.filter (fun c -> c.parent = s.id) !spans in
  let kid_dur = List.fold_left (fun a c -> a + duration c) 0 kids in
  let kid_hot = List.fold_left (fun a c -> a + c.hot_ns) 0 kids in
  duration s - kid_dur - (s.hot_ns - kid_hot)

let named name = List.filter (fun s -> s.name = name) (all ())
let total_ns name = List.fold_left (fun a s -> a + duration s) 0 (named name)

(* ------------------------------------------------------------------ *)
(* Hot-callback aggregates *)

(* Bucket [k] holds calls of [2^(k/4)] to [2^((k+1)/4)] ns: 19 %
   relative resolution from 1 ns to about 4 s. *)
let buckets = 128

type hot = {
  hot_name : string;
  mutable count : int;
  mutable sum_ns : int;
  hist : int array;
}

let hots : hot list ref = ref []

let hot hot_name =
  let h = { hot_name; count = 0; sum_ns = 0; hist = Array.make buckets 0 } in
  hots := h :: !hots;
  h

let bucket_of ns =
  if ns <= 1 then 0
  else Stdlib.min (buckets - 1) (int_of_float (4.0 *. Float.log2 (float_of_int ns)))

let record h ns =
  h.count <- h.count + 1;
  h.sum_ns <- h.sum_ns + ns;
  hot_total := !hot_total + ns;
  let b = bucket_of ns in
  h.hist.(b) <- h.hist.(b) + 1

let timed h f x =
  let t0 = now_ns () in
  let r = f x in
  record h (now_ns () - t0);
  r

let mean_ns h = if h.count = 0 then 0.0 else float_of_int h.sum_ns /. float_of_int h.count

(* Upper edge of the bucket holding quantile [q]. *)
let quantile_ns h q =
  let target = q *. float_of_int h.count in
  let acc = ref 0 and k = ref 0 in
  while !k < buckets - 1 && float_of_int (!acc + h.hist.(!k)) < target do
    acc := !acc + h.hist.(!k);
    incr k
  done;
  Float.pow 2.0 (float_of_int (!k + 1) /. 4.0)

(* Wrappers for the three callback kinds the library exposes. *)

let wrap_controller h (c : Sim.Policy.controller) =
  { c with Sim.Policy.decide = (fun obs -> timed h c.Sim.Policy.decide obs) }

let wrap_assignment h (a : Sim.Policy.assignment) =
  let choose ~idle ~core_classes ~core_temperatures =
    let t0 = now_ns () in
    let r = a.Sim.Policy.choose ~idle ~core_classes ~core_temperatures in
    record h (now_ns () - t0);
    r
  in
  { a with Sim.Policy.choose }

let wrap_balancer h (b : Fleet.Balancer.t) =
  { b with Fleet.Balancer.policy = wrap_assignment h b.Fleet.Balancer.policy }

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON (viewable in Perfetto / chrome://tracing) *)

let write_chrome ~path ~metadata =
  let oc = open_out path in
  let t0 =
    List.fold_left (fun a s -> Stdlib.min a s.start_ns) max_int !spans
  in
  let us ns = float_of_int ns /. 1e3 in
  let t_end = List.fold_left (fun a s -> Stdlib.max a s.end_ns) t0 !spans in
  let events =
    List.map
      (fun s ->
        Printf.sprintf
          "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"callback_us\":%.3f}}"
          s.name
          (us (s.start_ns - t0))
          (us (duration s))
          s.id s.parent (us s.hot_ns))
      (all ())
    (* One global instant event per callback aggregate, at the end. *)
    @ List.map
        (fun h ->
          Printf.sprintf
            "{\"name\":%S,\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"args\":{\"count\":%d,\"sum_ns\":%d,\"hist_log2_quarter_ns\":[%s]}}"
            ("callback " ^ h.hot_name)
            (us (t_end - t0))
            h.count h.sum_ns
            (String.concat "," (Array.to_list (Array.map string_of_int h.hist))))
        (List.rev !hots)
  in
  Printf.fprintf oc "{\"metadata\":{%s},\"traceEvents\":[\n%s\n]}\n"
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%S:%S" k v) metadata))
    (String.concat ",\n" events);
  close_out oc
