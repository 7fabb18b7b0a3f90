(* The host's speed at the moment of a measurement.

   The host is a VM whose physical cores other tenants share: for
   seconds to minutes at a time the same code runs up to twice as slow.
   A fixed reference task, timed right beside each timed pass, measures
   that.  It does the kinds of work the simulator does — allocation,
   hashtable updates, small byte copies — and it lives here, so no
   change to the library can change it. *)

(* The reference task's duration on the host the benchmark is expressed
   in: end-to-end times are scaled to a host on which one task takes
   exactly this long. *)
let nominal_s = 0.01

let table : (int, int list) Hashtbl.t = Hashtbl.create 4096
let buf = Bytes.create 65536

(* Each update stores a fresh block in a long-lived table, so the task
   also exercises the write barrier, promotion and major collection, as
   the simulator's mutable protocol state does. *)
let task () =
  for i = 1 to 100_000 do
    let k = i land 4095 in
    Hashtbl.replace table k [ i; k ];
    if i land 63 = 0 then Bytes.blit buf 0 buf 32768 4096
  done

(* Seconds one run of the task takes now.  Call it on a compacted heap,
   so the task's own allocation never pays for a simulation's garbage. *)
let reference_s () =
  let t0 = Probe.now () in
  task ();
  Probe.now () -. t0
