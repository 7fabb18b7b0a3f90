type addr = int

(* Last-hit accessor cache, one per processor: the apps' inner loops walk
   arrays word by word, so nearly every access lands in the region (and
   backing buffer) of the previous one.  Caching the buffer skips the
   region lookup and the per-proc backing resolution on repeat hits.
   A processor's buffer is extent-sized and is replaced when it grows, so
   the entry also bounds the offsets it may serve: a hit is
   [a - base < capacity - 7] as an unsigned comparison (both sides are
   stored biased by [min_int], so it is one signed compare), which keeps
   every 1-, 4- and 8-byte access of a hit inside the buffer.  Anything
   else — another region, an offset past the buffer, the buffer's last 7
   bytes — takes the miss path, which grows the buffer as needed.  Safe
   because regions are never unmapped and every growth goes through
   [fill], which refreshes the processor's entry. *)
type cache_entry = {
  mutable c_base : int;  (* cached region's base + min_int *)
  mutable c_lim : int;  (* max 0 (capacity - 7) + min_int; min_int never hits *)
  mutable c_backing : Bytes.t;
}

type t = {
  nprocs : int;
  region_size : int;
  mask : int;  (* region_size - 1: offset within a region is [addr land mask] *)
  mutable regions : Region.t array;  (* indexed by region number; None slots are Region 0 / holes *)
  mutable region_list : Region.t list;  (* creation order, reversed *)
  mutable next_index : int;
  (* Bump-allocation cursors, keyed by (kind, line_size). *)
  cursors : (Region.kind * int, Region.t) Hashtbl.t;
  cache : cache_entry array;  (* by proc *)
}

exception Unmapped of addr

exception Crosses_region of { addr : addr; len : int; last : addr }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ?(region_size = 16 * 1024 * 1024) ~nprocs () =
  if not (is_power_of_two region_size) then
    invalid_arg "Space.create: region_size must be a power of two";
  if nprocs <= 0 then invalid_arg "Space.create: nprocs must be positive";
  {
    nprocs;
    region_size;
    mask = region_size - 1;
    regions = Array.make 8 (Region.create ~index:0 ~kind:Private ~line_size:8 ~region_size:8 ~nprocs:1);
    region_list = [];
    next_index = 1;  (* region 0 stays unmapped so address 0 is null *)
    cursors = Hashtbl.create 8;
    cache =
      Array.init nprocs (fun _ -> { c_base = 0; c_lim = min_int; c_backing = Bytes.empty });
  }

let nprocs t = t.nprocs

let region_size t = t.region_size

(* The sentinel placed in empty slots is the bogus region 0; [mapped]
   distinguishes it. *)
let mapped t idx =
  idx > 0 && idx < t.next_index
  && idx < Array.length t.regions
  && (Array.unsafe_get t.regions idx).Region.index = idx

let region_of_addr t a =
  let idx = a / t.region_size in
  if mapped t idx then Array.unsafe_get t.regions idx else raise (Unmapped a)

let find_region t a =
  let idx = a / t.region_size in
  if a >= 0 && mapped t idx then Some t.regions.(idx) else None

let regions t = List.rev t.region_list

let grow_region_table t idx =
  let cap = Array.length t.regions in
  if idx >= cap then begin
    let fresh = Array.make (max (idx + 1) (cap * 2)) t.regions.(0) in
    Array.blit t.regions 0 fresh 0 cap;
    t.regions <- fresh
  end

let new_region t ~kind ~line_size =
  let idx = t.next_index in
  t.next_index <- idx + 1;
  grow_region_table t idx;
  let r =
    Region.create ~index:idx ~kind ~line_size ~region_size:t.region_size ~nprocs:t.nprocs
  in
  t.regions.(idx) <- r;
  t.region_list <- r :: t.region_list;
  r

let align_up v a = (v + a - 1) land lnot (a - 1)

let alloc t ~kind ?(line_size = 64) ?align bytes =
  if bytes <= 0 then invalid_arg "Space.alloc: size must be positive";
  if bytes > t.region_size then invalid_arg "Space.alloc: size exceeds region size";
  if not (is_power_of_two line_size) then
    invalid_arg "Space.alloc: line_size must be a power of two";
  let align = match align with Some a -> a | None -> max 8 line_size in
  if not (is_power_of_two align) then invalid_arg "Space.alloc: align must be a power of two";
  let key = (kind, line_size) in
  let region =
    match Hashtbl.find_opt t.cursors key with
    | Some r when align_up r.Region.used align + bytes <= t.region_size -> r
    | _ ->
        let r = new_region t ~kind ~line_size in
        Hashtbl.replace t.cursors key r;
        r
  in
  let off = align_up region.Region.used align in
  region.Region.used <- off + bytes;
  Region.base region + off

let validate_range t a len =
  if len < 0 then invalid_arg "Space.validate_range: negative length";
  let r = region_of_addr t a in
  (if len > 0 && a + len - 1 >= Region.limit r then
     (* Distinguish a range that runs off the end of mapped memory from
        one that genuinely spans two mapped regions.  The latter would
        previously raise a misleading [Unmapped] even though every byte
        is mapped — and a caller that swallowed it (or a zero-copy
        consumer handed only the first region's backing) would silently
        operate on partial data.  Regions have distinct per-proc backing
        buffers, so no single slice can ever serve a crossing range. *)
     let last = a + len - 1 in
     if mapped t (last / t.region_size) then raise (Crosses_region { addr = a; len; last })
     else raise (Unmapped last));
  r

(* The processor's buffer for [r], grown to cover the region's first
   [upto] bytes; every growth passes here and refreshes the processor's
   cache entry (any valid entry will do, so it is simply overwritten). *)
let fill t r ~proc ~upto =
  let b = Region.backing_for r ~proc ~upto in
  let e = Array.unsafe_get t.cache proc in
  e.c_base <- Region.base r + min_int;
  e.c_lim <- max 0 (Bytes.length b - 7) + min_int;
  e.c_backing <- b;
  b

(* Resolve the region and return a buffer covering an 8-byte access at
   [a].  Only ever reaches [fill] with a mapped address (region_of_addr
   raises otherwise), so the cache never holds an unmapped region. *)
let cache_miss t ~proc a =
  let r = region_of_addr t a in
  fill t r ~proc ~upto:(min t.region_size ((a land t.mask) + 8))

(* The accessor hot path: no tuple allocation; the in-region offset is
   [a land t.mask] because region bases are region_size-aligned. *)
let[@inline] backing t ~proc a =
  let e = Array.unsafe_get t.cache proc in
  if a - e.c_base < e.c_lim then e.c_backing else cache_miss t ~proc a

let get_u8 t ~proc a = Char.code (Bytes.get (backing t ~proc a) (a land t.mask))

let set_u8 t ~proc a v = Bytes.set (backing t ~proc a) (a land t.mask) (Char.chr (v land 0xff))

let get_i32 t ~proc a = Bytes.get_int32_le (backing t ~proc a) (a land t.mask)

let set_i32 t ~proc a v = Bytes.set_int32_le (backing t ~proc a) (a land t.mask) v

let get_i64 t ~proc a = Bytes.get_int64_le (backing t ~proc a) (a land t.mask)

let set_i64 t ~proc a v = Bytes.set_int64_le (backing t ~proc a) (a land t.mask) v

let get_f64 t ~proc a = Int64.float_of_bits (get_i64 t ~proc a)

let set_f64 t ~proc a v = set_i64 t ~proc a (Int64.bits_of_float v)

let get_int t ~proc a = Int64.to_int (get_i64 t ~proc a)

let set_int t ~proc a v = set_i64 t ~proc a (Int64.of_int v)

(* Range accessors resolve the buffer through [fill] so that it covers
   the whole range, not just its first word. *)
let range_buffer t ~proc a ~len =
  let r = validate_range t a len in
  let off = a - Region.base r in
  (fill t r ~proc ~upto:(off + len), off)

let read_bytes t ~proc a ~len =
  let b, off = range_buffer t ~proc a ~len in
  Bytes.sub b off len

let write_bytes t ~proc a buf =
  let b, off = range_buffer t ~proc a ~len:(Bytes.length buf) in
  Bytes.blit buf 0 b off (Bytes.length buf)

let copy_range t ~src_proc ~dst_proc a ~len =
  let src, off = range_buffer t ~proc:src_proc a ~len in
  let dst, _ = range_buffer t ~proc:dst_proc a ~len in
  Bytes.blit src off dst off len

let backing_slice = range_buffer

let ranges_equal t ~proc_a ~proc_b a ~len =
  let ba, off = range_buffer t ~proc:proc_a a ~len in
  let bb, _ = range_buffer t ~proc:proc_b a ~len in
  (* word-wise comparison with a byte-wise tail *)
  let words = len / 8 in
  let rec words_eq i =
    i >= words
    || (Bytes.get_int64_le ba (off + (i * 8)) = Bytes.get_int64_le bb (off + (i * 8))
       && words_eq (i + 1))
  in
  let rec tail_eq i =
    i >= len || (Bytes.get ba (off + i) = Bytes.get bb (off + i) && tail_eq (i + 1))
  in
  words_eq 0 && tail_eq (words * 8)
