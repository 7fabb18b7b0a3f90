type kind = Shared | Private

type t = {
  index : int;
  kind : kind;
  line_size : int;
  region_size : int;
  nprocs : int;
  mutable used : int;
  backing : Bytes.t array;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ~index ~kind ~line_size ~region_size ~nprocs =
  if not (is_power_of_two line_size) then
    invalid_arg "Region.create: line_size must be a positive power of two";
  if line_size > region_size then
    invalid_arg "Region.create: line_size exceeds region_size";
  if nprocs <= 0 then invalid_arg "Region.create: nprocs must be positive";
  {
    index;
    kind;
    line_size;
    region_size;
    nprocs;
    used = 0;
    (* an empty buffer marks a processor that has not touched the region *)
    backing = Array.make nprocs Bytes.empty;
  }

let base t = t.index * t.region_size

let limit t = base t + t.region_size

let lines t = t.region_size / t.line_size

let line_of_offset t off = off / t.line_size

let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (2 * p)

let capacity_for t bytes =
  min t.region_size (pow2_at_least (max bytes t.used) (max 4096 t.line_size))

let backing_for t ~proc ~upto =
  let b = t.backing.(proc) in
  let len = Bytes.length b in
  if len > 0 && len >= upto && len >= t.used then b
  else begin
    (* Grow (or materialise) zero-filled, keeping the bytes written so
       far: untouched memory reads as zero at any capacity. *)
    let fresh = Bytes.make (capacity_for t upto) '\000' in
    Bytes.blit b 0 fresh 0 (Bytes.length b);
    t.backing.(proc) <- fresh;
    fresh
  end

let capacity t ~proc = Bytes.length t.backing.(proc)

let touched t ~proc = Bytes.length t.backing.(proc) > 0
