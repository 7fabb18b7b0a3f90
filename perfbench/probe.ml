(* Host-clock spans recorded from the benchmark's own call sites.

   Unarmed (the default), [span name f] is just [f ()]: the timed runs
   that report end-to-end metrics pay one branch per call.  Armed, every
   span records its wall interval, its parent, the [Gc.quick_stat]
   deltas over the interval and the GC pause time the runtime reported
   through [runtime_events] during it.  Spans are kept in memory and
   written out once, at the end of the run. *)

type span = {
  name : string;
  id : int;
  parent : int;  (* -1 = top level *)
  t0 : float;  (* host seconds, monotonic *)
  t1 : float;
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  gc_minor_s : float;  (* GC pause time inside the span, from runtime_events *)
  gc_major_s : float;
}

(* Host seconds on the monotonic clock, at nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* ------------------------------------------------------------------ *)
(* GC pause time from runtime_events                                   *)

(* Pause time is the union of the intervals during which at least one
   minor (resp. major) phase is open, so nested phases such as
   major_slice > major_mark count once. *)
type gc_clock = {
  mutable open_minor : int;
  mutable open_major : int;
  mutable minor_since : int64;
  mutable major_since : int64;
  mutable minor_ns : int64;
  mutable major_ns : int64;
  mutable lost : int;
}

let gc = {
  open_minor = 0;
  open_major = 0;
  minor_since = 0L;
  major_since = 0L;
  minor_ns = 0L;
  major_ns = 0L;
  lost = 0;
}

let classify (ph : Runtime_events.runtime_phase) =
  match ph with
  | EV_MINOR | EV_EXPLICIT_GC_MINOR -> `Minor
  | EV_MAJOR | EV_MAJOR_SLICE | EV_MAJOR_FINISH_CYCLE | EV_EXPLICIT_GC_MAJOR
  | EV_EXPLICIT_GC_FULL_MAJOR | EV_EXPLICIT_GC_MAJOR_SLICE | EV_EXPLICIT_GC_COMPACT ->
      `Major
  | _ -> `Other

let on_begin _ ts ph =
  let t = Runtime_events.Timestamp.to_int64 ts in
  match classify ph with
  | `Minor ->
      if gc.open_minor = 0 then gc.minor_since <- t;
      gc.open_minor <- gc.open_minor + 1
  | `Major ->
      if gc.open_major = 0 then gc.major_since <- t;
      gc.open_major <- gc.open_major + 1
  | `Other -> ()

(* An end without its begin (the begin was lost, or predates the cursor)
   is ignored rather than allowed to drive the nesting depth negative. *)
let on_end _ ts ph =
  let t = Runtime_events.Timestamp.to_int64 ts in
  match classify ph with
  | `Minor when gc.open_minor > 0 ->
      gc.open_minor <- gc.open_minor - 1;
      if gc.open_minor = 0 then gc.minor_ns <- Int64.add gc.minor_ns (Int64.sub t gc.minor_since)
  | `Major when gc.open_major > 0 ->
      gc.open_major <- gc.open_major - 1;
      if gc.open_major = 0 then gc.major_ns <- Int64.add gc.major_ns (Int64.sub t gc.major_since)
  | _ -> ()

let callbacks =
  Runtime_events.Callbacks.create ~runtime_begin:on_begin ~runtime_end:on_end
    ~lost_events:(fun _ n -> gc.lost <- gc.lost + n)
    ()

let cursor = ref None

let poll () =
  match !cursor with
  | None -> ()
  | Some c -> ignore (Runtime_events.read_poll c callbacks None)

let events_lost () = gc.lost

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let armed = ref false
let recorded : span list ref = ref []  (* newest first *)
let stack : int list ref = ref []
let next_id = ref 0

let arm () =
  if !cursor = None then begin
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None);
    poll ()
  end;
  armed := true

let disarm () =
  poll ();
  armed := false

let span name f =
  if not !armed then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    poll ();
    let s0 = Gc.quick_stat () in
    let m0 = gc.minor_ns and j0 = gc.major_ns in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      poll ();
      let s1 = Gc.quick_stat () in
      stack := List.tl !stack;
      recorded :=
        {
          name;
          id;
          parent;
          t0;
          t1;
          minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
          promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
          minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
          major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
          gc_minor_s = Int64.to_float (Int64.sub gc.minor_ns m0) /. 1e9;
          gc_major_s = Int64.to_float (Int64.sub gc.major_ns j0) /. 1e9;
        }
        :: !recorded
    in
    Fun.protect ~finally:finish f
  end

let spans () = List.rev !recorded
let duration s = s.t1 -. s.t0

(* Self time: the span's duration minus the part of it its direct
   children cover. *)
let self_times spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)))
    spans

let span_json s self =
  let open Midway_util.Json in
  Obj
    [
      ("name", Str s.name);
      ("id", Int s.id);
      ("parent", Int s.parent);
      ("t0_s", Float s.t0);
      ("dur_s", Float (duration s));
      ("self_s", Float self);
      ("minor_words", Float s.minor_words);
      ("promoted_words", Float s.promoted_words);
      ("minor_collections", Int s.minor_collections);
      ("major_collections", Int s.major_collections);
      ("gc_minor_s", Float s.gc_minor_s);
      ("gc_major_s", Float s.gc_major_s);
    ]
