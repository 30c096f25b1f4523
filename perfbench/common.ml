(* Shared plumbing of the benchmark: the clock, seeded generators,
   sample statistics, span accumulators and the result line. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_of_ns ns = float_of_int ns /. 1e9

(* One generator per purpose, all derived from the workload seed, so a
   workload regenerates from its seed alone and adding a draw in one
   stream never shifts another. *)
let rng ~seed ~stream = Random.State.make [| 0x5eed; seed; stream |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* --- sample statistics ---------------------------------------------- *)

(* Growable float sample. *)
type samples = { mutable data : float array; mutable n : int }

let samples () = { data = Array.make 4096 0.; n = 0 }

let add s v =
  if s.n = Array.length s.data then begin
    let d = Array.make (2 * s.n) 0. in
    Array.blit s.data 0 d 0 s.n;
    s.data <- d
  end;
  s.data.(s.n) <- v;
  s.n <- s.n + 1

let count s = s.n

(* Nearest-rank percentile, [p] in [0, 100]. *)
let percentile s p =
  if s.n = 0 then nan
  else begin
    let a = Array.sub s.data 0 s.n in
    Array.sort compare a;
    let rank = int_of_float (ceil (p /. 100. *. float_of_int s.n)) in
    a.(max 0 (min (s.n - 1) (rank - 1)))
  end

let of_list l =
  let s = samples () in
  List.iter (add s) l;
  s

(* The median, over the units [kept], of each unit's own [p]th percentile
   of [per_unit], unit [i] owning samples [i * k .. i * k + k - 1]. A
   latency percentile is taken per window and then across windows, so
   that it describes a typical quiet window rather than the spread
   between the kept windows' speeds. *)
let unit_percentile per_unit ~k kept p =
  let per = samples () and s = samples () in
  Array.iter
    (fun i ->
      per.n <- 0;
      for j = i * k to min (per_unit.n - 1) ((i * k) + k - 1) do
        add per per_unit.data.(j)
      done;
      add s (percentile per p))
    kept;
  percentile s 50.

(* --- quiet-host estimators ------------------------------------------------ *)

(* The host shares its cores with other machines: its speed wanders, by
   up to 2x for identical cache-resident work, on every time scale from
   tens of milliseconds to minutes, and a run's luck with it moves any
   figure taken over the whole run. So repeated, identical units of work
   (windows of rounds with the same composition, restores) are ranked by
   their own speed and only the fastest [quiet_share] of them is kept:
   [quiet_units x ~higher_is_better] returns the indices of those units,
   at least one. Only units that do the same work may be ranked this way,
   or the ranking would select on content instead of on host noise. *)
let quiet_share = 0.1

let quiet_units x ~higher_is_better =
  let idx = Array.init x.n Fun.id in
  let key i = if higher_is_better then -.x.data.(i) else x.data.(i) in
  Array.stable_sort (fun a b -> compare (key a) (key b)) idx;
  Array.sub idx 0 (max 1 (int_of_float (quiet_share *. float_of_int x.n)))

(* The median over the quiet units of [x]. *)
let quiet_median x ~higher_is_better =
  let s = samples () in
  Array.iter (fun i -> add s x.data.(i)) (quiet_units x ~higher_is_better);
  percentile s 50.

(* The quiet time of an operation repeated as identical step sequences
   [runs]: step by step, the median over the quiet runs, summed. A long
   operation spans many host phases; its steps, like windows, can each
   be taken from a quiet one. *)
let quiet_sum runs =
  match runs with
  | [] -> nan
  | r0 :: _ ->
      let total = ref 0. in
      for j = 0 to r0.n - 1 do
        let step = of_list (List.map (fun r -> r.data.(j)) runs) in
        total := !total +. quiet_median step ~higher_is_better:false
      done;
      !total

(* Run [f], appending its wall time in seconds to [times]: one step of an
   operation timed for [quiet_sum]. *)
let timed times f =
  let t0 = now_ns () in
  let x = f () in
  add times (secs_of_ns (now_ns () - t0));
  x

(* Set-ups and restores are timed step by step, a step being a router's
   creation, a chunk of [step_lines] command lines or a fingerprint:
   every set-up (restore) of a run takes the same steps, so a run's
   set-ups (restores) are summarised by their [quiet_sum]. *)
let step_lines = 16

let rec take n = function
  | x :: l when n > 0 ->
      let a, b = take (n - 1) l in
      (x :: a, b)
  | l -> ([], l)

(* Apply [f] to [l] in chunks of [step_lines], each chunk a timed step. *)
let rec timed_chunks times f l =
  if l <> [] then begin
    let chunk, rest = take step_lines l in
    timed times (fun () -> f chunk);
    timed_chunks times f rest
  end

let mean s =
  if s.n = 0 then 0.
  else begin
    let t = ref 0. in
    for i = 0 to s.n - 1 do
      t := !t +. s.data.(i)
    done;
    !t /. float_of_int s.n
  end

(* --- spans ------------------------------------------------------------ *)

(* A layer's spans, aggregated in memory as they are recorded: wall
   nanoseconds, minor-heap words allocated by the calling domain, span
   count, and the work units (packets, requests) they covered. *)
type acc = {
  name : string;
  mutable ns : int;
  mutable words : float;
  mutable spans : int;
  mutable units : int;
}

let acc name = { name; ns = 0; words = 0.; spans = 0; units = 0 }

(* Cost of recording one empty span in minor words (Gc.minor_words is
   unboxed, so this is expected to be 0; measured, not assumed). *)
let span_words =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  w1 -. w0

let[@inline] span_begin () = now_ns ()

let[@inline] span_end a t0 w0 units =
  a.ns <- a.ns + (now_ns () - t0);
  a.words <- a.words +. (Gc.minor_words () -. w0 -. span_words);
  a.spans <- a.spans + 1;
  a.units <- a.units + units

let ns_per_unit a = if a.units = 0 then 0. else float_of_int a.ns /. float_of_int a.units
let words_per_unit a = if a.units = 0 then 0. else a.words /. float_of_int a.units
let us_per_unit a = ns_per_unit a /. 1e3

(* --- host facts ---------------------------------------------------------- *)

(* Peak resident set of a process, from /proc/<pid>/status (VmHWM). *)
let rss_peak_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> go ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

let nproc () = Domain.recommended_domain_count ()

(* The host's speed around a run, to read its figures by: a fixed
   cache-resident loop timed in 20 slices, fastest and median slice in
   milliseconds. Printed beside the result, not a metric. *)
let host_probe () =
  let a = Array.make 4096 0 in
  let s = samples () in
  for _ = 1 to 20 do
    let t0 = now_ns () in
    for k = 1 to 2_000_000 do
      let i = k land 4095 in
      a.(i) <- a.(i) + k
    done;
    add s (float_of_int (now_ns () - t0) /. 1e6)
  done;
  ignore (Sys.opaque_identity a);
  (percentile s 0., percentile s 50.)

(* --- checks and the result line -------------------------------------- *)

(* Every correctness check of a run goes through [check]: a failure is
   counted (it ends up in [failed] and makes [correct] false) and
   described on stderr, never silently dropped. *)
type verdict = { mutable attempted : int; mutable failed : int }

let verdict () = { attempted = 0; failed = 0 }

let check v ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        v.failed <- v.failed + 1;
        prerr_endline ("check failed: " ^ msg)
      end)
    fmt

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

let json_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let result_line ~correct (v : verdict) metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
          (json_num m.m_value) m.m_unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct (max 1 v.attempted) v.failed (String.concat ", " ms)
