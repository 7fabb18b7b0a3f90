(* Tests for the simulated shared address space: regions, the allocator,
   typed access and per-processor isolation. *)

module Region = Midway_memory.Region
module Space = Midway_memory.Space

let qtest = QCheck_alcotest.to_alcotest

(* --- Region ------------------------------------------------------------ *)

let test_region_create_validation () =
  Alcotest.check_raises "line size power of two"
    (Invalid_argument "Region.create: line_size must be a positive power of two") (fun () ->
      ignore (Region.create ~index:1 ~kind:Region.Shared ~line_size:48 ~region_size:4096 ~nprocs:2));
  Alcotest.check_raises "line fits region"
    (Invalid_argument "Region.create: line_size exceeds region_size") (fun () ->
      ignore (Region.create ~index:1 ~kind:Region.Shared ~line_size:8192 ~region_size:4096 ~nprocs:2))

let test_region_geometry () =
  let r = Region.create ~index:3 ~kind:Region.Shared ~line_size:64 ~region_size:4096 ~nprocs:2 in
  Alcotest.(check int) "base" (3 * 4096) (Region.base r);
  Alcotest.(check int) "limit" (4 * 4096) (Region.limit r);
  Alcotest.(check int) "lines" 64 (Region.lines r);
  Alcotest.(check int) "line of offset" 1 (Region.line_of_offset r 65)

let test_region_lazy_backing () =
  let r = Region.create ~index:1 ~kind:Region.Shared ~line_size:8 ~region_size:1024 ~nprocs:3 in
  Alcotest.(check bool) "untouched" false (Region.touched r ~proc:0);
  let b = Region.backing_for r ~proc:0 ~upto:0 in
  Alcotest.(check int) "zero filled, right size" 1024 (Bytes.length b);
  Alcotest.(check bool) "now touched" true (Region.touched r ~proc:0);
  Alcotest.(check bool) "other processors untouched" false (Region.touched r ~proc:1);
  Bytes.set b 0 'x';
  Alcotest.(check char) "same buffer returned" 'x' (Bytes.get (Region.backing_for r ~proc:0 ~upto:0) 0)

(* A copy covers the allocated extent, not the whole region: the next
   power of two, at least 4 KiB, at most the region; it grows with
   [used] and keeps what was written. *)
let test_region_extent_sized_backing () =
  let r = Region.create ~index:1 ~kind:Region.Shared ~line_size:8 ~region_size:65536 ~nprocs:2 in
  Alcotest.(check int) "floor of 4 KiB" 4096 (Bytes.length (Region.backing_for r ~proc:0 ~upto:0));
  Bytes.set (Region.backing_for r ~proc:0 ~upto:0) 100 'x';
  r.Region.used <- 5000;
  let b = Region.backing_for r ~proc:0 ~upto:0 in
  Alcotest.(check int) "next power of two over used" 8192 (Bytes.length b);
  Alcotest.(check char) "contents kept across growth" 'x' (Bytes.get b 100);
  Alcotest.(check bool) "growth zero-fills" true (Bytes.get b 5000 = '\000');
  Alcotest.(check int) "upto the end" 65536 (Bytes.length (Region.backing_for r ~proc:0 ~upto:65000));
  Alcotest.(check int) "never past the region" 65536 (Region.capacity r ~proc:0);
  Alcotest.(check int) "other processor sized by used alone" 8192
    (Bytes.length (Region.backing_for r ~proc:1 ~upto:0))

(* --- Space allocator --------------------------------------------------- *)

let test_alloc_basics () =
  let s = Space.create ~region_size:65536 ~nprocs:2 () in
  let a = Space.alloc s ~kind:Region.Shared ~line_size:64 100 in
  Alcotest.(check bool) "address 0 never allocated" true (a > 0);
  Alcotest.(check int) "line aligned" 0 (a mod 64);
  let r = Space.region_of_addr s a in
  Alcotest.(check int) "region line size" 64 r.Region.line_size;
  Alcotest.check_raises "oversized" (Invalid_argument "Space.alloc: size exceeds region size")
    (fun () -> ignore (Space.alloc s ~kind:Region.Shared (65536 + 1)));
  Alcotest.check_raises "non-positive" (Invalid_argument "Space.alloc: size must be positive")
    (fun () -> ignore (Space.alloc s ~kind:Region.Shared 0))

let test_alloc_kind_separation () =
  let s = Space.create ~nprocs:2 () in
  let shared = Space.alloc s ~kind:Region.Shared 64 in
  let priv = Space.alloc s ~kind:Region.Private 64 in
  Alcotest.(check bool) "different regions" true
    ((Space.region_of_addr s shared).Region.index <> (Space.region_of_addr s priv).Region.index);
  Alcotest.(check bool) "kinds recorded" true
    ((Space.region_of_addr s shared).Region.kind = Region.Shared
    && (Space.region_of_addr s priv).Region.kind = Region.Private)

let test_unmapped () =
  let s = Space.create ~nprocs:1 () in
  Alcotest.(check bool) "address zero unmapped" true (Space.find_region s 0 = None);
  (try
     ignore (Space.get_u8 s ~proc:0 0);
     Alcotest.fail "expected Unmapped"
   with Space.Unmapped 0 -> ());
  let a = Space.alloc s ~kind:Region.Shared 16 in
  (* one past the region end is unmapped *)
  let r = Space.region_of_addr s a in
  try
    ignore (Space.validate_range s a (Region.limit r - a + 1));
    Alcotest.fail "expected Unmapped for range crossing the region"
  with Space.Unmapped _ -> ()

let alloc_no_overlap =
  QCheck.Test.make ~name:"allocations never overlap" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 1 5000))
    (fun sizes ->
      let s = Space.create ~region_size:(1 lsl 20) ~nprocs:1 () in
      let allocs =
        List.mapi
          (fun i size ->
            let line = [| 8; 16; 64; 256 |].(i mod 4) in
            (Space.alloc s ~kind:Region.Shared ~line_size:line size, size))
          sizes
      in
      let sorted = List.sort compare allocs in
      let rec disjoint = function
        | (a1, l1) :: ((a2, _) as b) :: rest -> a1 + l1 <= a2 && disjoint (b :: rest)
        | _ -> true
      in
      disjoint sorted)

(* --- typed access ------------------------------------------------------- *)

let roundtrip_f64 =
  QCheck.Test.make ~name:"f64 write/read round-trips" ~count:300 QCheck.float (fun v ->
      let s = Space.create ~nprocs:2 () in
      let a = Space.alloc s ~kind:Region.Shared 8 in
      Space.set_f64 s ~proc:0 a v;
      let got = Space.get_f64 s ~proc:0 a in
      Int64.bits_of_float got = Int64.bits_of_float v)

let roundtrip_int =
  QCheck.Test.make ~name:"int write/read round-trips" ~count:300 QCheck.int (fun v ->
      let s = Space.create ~nprocs:1 () in
      let a = Space.alloc s ~kind:Region.Shared 8 in
      Space.set_int s ~proc:0 a v;
      Space.get_int s ~proc:0 a = v)

let roundtrip_i32 =
  QCheck.Test.make ~name:"i32 write/read round-trips" ~count:300 QCheck.int32 (fun v ->
      let s = Space.create ~nprocs:1 () in
      let a = Space.alloc s ~kind:Region.Shared 4 in
      Space.set_i32 s ~proc:0 a v;
      Space.get_i32 s ~proc:0 a = v)

let test_u8 () =
  let s = Space.create ~nprocs:1 () in
  let a = Space.alloc s ~kind:Region.Shared 4 in
  Space.set_u8 s ~proc:0 a 0x1FF;
  Alcotest.(check int) "masked to a byte" 0xFF (Space.get_u8 s ~proc:0 a)

let test_per_proc_isolation () =
  let s = Space.create ~nprocs:3 () in
  let a = Space.alloc s ~kind:Region.Shared 8 in
  Space.set_int s ~proc:0 a 111;
  Space.set_int s ~proc:1 a 222;
  Alcotest.(check int) "p0 copy" 111 (Space.get_int s ~proc:0 a);
  Alcotest.(check int) "p1 copy" 222 (Space.get_int s ~proc:1 a);
  Alcotest.(check int) "p2 copy untouched" 0 (Space.get_int s ~proc:2 a)

let test_bytes_and_copy_range () =
  let s = Space.create ~nprocs:2 () in
  let a = Space.alloc s ~kind:Region.Shared 32 in
  let payload = Bytes.of_string "entry consistency protocol!!" in
  Space.write_bytes s ~proc:0 a payload;
  Alcotest.(check bytes) "read back" payload
    (Space.read_bytes s ~proc:0 a ~len:(Bytes.length payload));
  Alcotest.(check bool) "processors differ" false
    (Space.ranges_equal s ~proc_a:0 ~proc_b:1 a ~len:(Bytes.length payload));
  Space.copy_range s ~src_proc:0 ~dst_proc:1 a ~len:(Bytes.length payload);
  Alcotest.(check bool) "copy made them equal" true
    (Space.ranges_equal s ~proc_a:0 ~proc_b:1 a ~len:(Bytes.length payload))

(* The word-wise ranges_equal must agree with a byte-by-byte comparison,
   in particular across tails shorter than its 8-byte stride. *)
let ranges_equal_matches_bytewise =
  QCheck.Test.make ~name:"ranges_equal equals byte-wise comparison (any tail)" ~count:500
    QCheck.(
      triple (int_bound 37) (list (pair (int_bound 36) (int_bound 255))) bool)
    (fun (len, edits, mirror) ->
      let s = Space.create ~nprocs:2 () in
      let a = Space.alloc s ~kind:Region.Shared (max 1 len + 8) in
      for i = 0 to len - 1 do
        let v = (i * 13) land 0xff in
        Space.set_u8 s ~proc:0 (a + i) v;
        Space.set_u8 s ~proc:1 (a + i) v
      done;
      (* [mirror] applies the same edits to both copies, so both the equal
         and the differing outcome are exercised. *)
      List.iter
        (fun (pos, v) ->
          if pos < len then begin
            Space.set_u8 s ~proc:1 (a + pos) v;
            if mirror then Space.set_u8 s ~proc:0 (a + pos) v
          end)
        edits;
      let byte_wise =
        let rec eq i =
          i >= len || (Space.get_u8 s ~proc:0 (a + i) = Space.get_u8 s ~proc:1 (a + i) && eq (i + 1))
        in
        eq 0
      in
      Space.ranges_equal s ~proc_a:0 ~proc_b:1 a ~len = byte_wise)

let test_backing_slice_is_live () =
  let s = Space.create ~nprocs:2 () in
  let a = Space.alloc s ~kind:Region.Shared 32 in
  Space.write_bytes s ~proc:0 a (Bytes.of_string "abcdefgh");
  let b, off = Space.backing_slice s ~proc:0 a ~len:8 in
  Alcotest.(check string) "view of the live copy" "abcdefgh" (Bytes.sub_string b off 8);
  Space.set_u8 s ~proc:0 a (Char.code 'Z');
  Alcotest.(check char) "sees later writes (no copy)" 'Z' (Bytes.get b off);
  try
    ignore (Space.backing_slice s ~proc:0 0 ~len:4);
    Alcotest.fail "expected Unmapped"
  with Space.Unmapped 0 -> ()

(* Every address of a mapped region reads as zero until written, past
   the allocated extent and in the region's last bytes included, and
   writes there persist — whatever size the processor's copy has. *)
let test_reads_past_extent () =
  let rs = 65536 in
  let s = Space.create ~region_size:rs ~nprocs:3 () in
  let a = Space.alloc s ~kind:Region.Shared ~line_size:8 100 in
  let r = Space.region_of_addr s a in
  let last8 = Region.limit r - 8 in
  (* a word straddling the end of a hot 4 KiB copy grows it *)
  Space.set_int s ~proc:2 a 1;
  Space.set_int s ~proc:2 (Region.base r + 4092) 5;
  Alcotest.(check int) "word across the copy's end" 5
    (Space.get_int s ~proc:2 (Region.base r + 4092));
  Alcotest.(check int) "copy grew past it" 8192 (Region.capacity r ~proc:2);
  Space.set_int s ~proc:0 a 42;
  Alcotest.(check int) "copy starts at 4 KiB" 4096 (Region.capacity r ~proc:0);
  Alcotest.(check int) "past used reads zero" 0 (Space.get_int s ~proc:0 (a + 8000));
  Alcotest.(check int) "last 8 bytes read zero" 0 (Space.get_int s ~proc:0 last8);
  Alcotest.(check int) "last byte reads zero" 0 (Space.get_u8 s ~proc:1 (Region.limit r - 1));
  Space.set_int s ~proc:0 last8 7;
  Space.set_u8 s ~proc:1 (Region.limit r - 1) 9;
  Space.set_i32 s ~proc:1 (Region.limit r - 8) 5l;
  Space.set_int s ~proc:0 (a + 8000) 11;
  Alcotest.(check int) "last word persists" 7 (Space.get_int s ~proc:0 last8);
  Alcotest.(check int) "last byte persists" 9 (Space.get_u8 s ~proc:1 (Region.limit r - 1));
  Alcotest.(check int32) "last i32 persists" 5l (Space.get_i32 s ~proc:1 (Region.limit r - 8));
  Alcotest.(check int) "past-used write persists" 11 (Space.get_int s ~proc:0 (a + 8000));
  Alcotest.(check int) "earlier write survives growth" 42 (Space.get_int s ~proc:0 a);
  Alcotest.(check int) "grown to the whole region" rs (Region.capacity r ~proc:0);
  (* unaligned words in the last bytes: inside the region they work,
     across its end they fail as before *)
  Space.set_int s ~proc:1 (last8 - 3) 123;
  Alcotest.(check int) "unaligned tail word" 123 (Space.get_int s ~proc:1 (last8 - 3));
  Alcotest.(check bool) "a word running off the region still fails" true
    (match Space.get_int s ~proc:1 (last8 + 4) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* A processor caches a region's copy; a later allocation grows the
   region and an access past the old copy replaces it.  The cache must
   then serve the new buffer — old values intact, new ones visible on
   every path (typed, range, zero-copy). *)
let test_growth_after_cache () =
  let s = Space.create ~region_size:65536 ~nprocs:2 () in
  let a = Space.alloc s ~kind:Region.Shared ~line_size:8 64 in
  let r = Space.region_of_addr s a in
  Space.set_int s ~proc:0 a 1;
  Alcotest.(check int) "cached at 4 KiB" 4096 (Region.capacity r ~proc:0);
  let b = Space.alloc s ~kind:Region.Shared ~line_size:8 20000 in
  Alcotest.(check bool) "same region" true ((Space.region_of_addr s b).Region.index = r.Region.index);
  Alcotest.(check int) "allocation alone copies nothing" 4096 (Region.capacity r ~proc:0);
  Alcotest.(check int) "hot cache still serves the old copy" 1 (Space.get_int s ~proc:0 a);
  Space.set_int s ~proc:0 (b + 19992) 2;
  Alcotest.(check int) "grown past used" 32768 (Region.capacity r ~proc:0);
  Space.set_int s ~proc:0 a 3;
  Alcotest.(check int) "cache serves the new buffer" 3 (Space.get_int s ~proc:0 a);
  Alcotest.(check int) "range path sees the same buffer" 3
    (Int64.to_int (Bytes.get_int64_le (Space.read_bytes s ~proc:0 a ~len:8) 0));
  let buf, off = Space.backing_slice s ~proc:0 a ~len:8 in
  Alcotest.(check int) "zero-copy slice is the live buffer" 3
    (Int64.to_int (Bytes.get_int64_le buf off));
  Alcotest.(check int) "far write visible" 2 (Space.get_int s ~proc:0 (b + 19992))

(* copy_range, ranges_equal and backing_slice with one side grown and
   the other small or untouched. *)
let test_ranges_across_growth () =
  let s = Space.create ~region_size:65536 ~nprocs:3 () in
  let a = Space.alloc s ~kind:Region.Shared ~line_size:8 64 in
  let r = Space.region_of_addr s a in
  ignore (Space.get_int s ~proc:1 a);
  let far = Space.alloc s ~kind:Region.Shared ~line_size:8 30000 + 29000 in
  Space.write_bytes s ~proc:0 far (Bytes.of_string "grown copy");
  Alcotest.(check int) "p1 still small" 4096 (Region.capacity r ~proc:1);
  Alcotest.(check bool) "differs before the copy" false
    (Space.ranges_equal s ~proc_a:0 ~proc_b:1 far ~len:10);
  Alcotest.(check bool) "zeros compare equal past a small copy" true
    (Space.ranges_equal s ~proc_a:1 ~proc_b:2 (far + 100) ~len:64);
  Space.copy_range s ~src_proc:0 ~dst_proc:1 far ~len:10;
  Alcotest.(check bool) "copy grew the destination" true (Region.capacity r ~proc:1 >= 32768);
  Alcotest.(check bool) "equal after the copy" true
    (Space.ranges_equal s ~proc_a:0 ~proc_b:1 far ~len:10);
  let buf, off = Space.backing_slice s ~proc:1 far ~len:10 in
  Alcotest.(check string) "slice of the grown copy" "grown copy" (Bytes.sub_string buf off 10);
  (* p1's cache held its 4 KiB copy; the range operations replaced it *)
  Space.set_int s ~proc:1 a 77;
  Alcotest.(check int) "typed write lands in the grown copy" 77
    (Int64.to_int (Bytes.get_int64_le (Space.read_bytes s ~proc:1 a ~len:8) 0));
  (* copying from an untouched processor writes zeros *)
  Space.copy_range s ~src_proc:2 ~dst_proc:1 far ~len:5;
  Alcotest.(check string) "zeros copied" "\000\000\000\000\000 copy"
    (Bytes.to_string (Space.read_bytes s ~proc:1 far ~len:10))

(* Touching is per processor and only an access touches: allocation and
   other processors' growth leave an untouched copy untouched. *)
let test_touched_unchanged () =
  let s = Space.create ~region_size:65536 ~nprocs:3 () in
  let a = Space.alloc s ~kind:Region.Shared ~line_size:8 64 in
  let r = Space.region_of_addr s a in
  Alcotest.(check bool) "fresh region untouched" false (Region.touched r ~proc:0);
  Space.set_int s ~proc:0 a 1;
  ignore (Space.alloc s ~kind:Region.Shared ~line_size:8 40000);
  Space.set_int s ~proc:0 (a + 39000) 1;
  Alcotest.(check bool) "writer touched" true (Region.touched r ~proc:0);
  Alcotest.(check bool) "others untouched" false
    (Region.touched r ~proc:1 || Region.touched r ~proc:2);
  ignore (Space.get_int s ~proc:1 a);
  Alcotest.(check bool) "a read touches" true (Region.touched r ~proc:1);
  Alcotest.(check int) "and materialises the extent" 65536 (Region.capacity r ~proc:1);
  Alcotest.(check bool) "the third still untouched" false (Region.touched r ~proc:2)

let test_regions_listed_in_order () =
  let s = Space.create ~nprocs:1 () in
  ignore (Space.alloc s ~kind:Region.Shared ~line_size:8 16);
  ignore (Space.alloc s ~kind:Region.Shared ~line_size:64 16);
  ignore (Space.alloc s ~kind:Region.Private ~line_size:8 16);
  let idxs = List.map (fun r -> r.Region.index) (Space.regions s) in
  Alcotest.(check (list int)) "creation order" [ 1; 2; 3 ] idxs

let region_lookup_consistent =
  QCheck.Test.make ~name:"every allocated byte maps back to its region" ~count:100
    QCheck.(int_range 1 10_000)
    (fun size ->
      let s = Space.create ~nprocs:1 () in
      let a = Space.alloc s ~kind:Region.Shared size in
      let r = Space.region_of_addr s a in
      let r' = Space.region_of_addr s (a + size - 1) in
      r.Region.index = r'.Region.index)

let () =
  Alcotest.run "memory"
    [
      ( "region",
        [
          Alcotest.test_case "validation" `Quick test_region_create_validation;
          Alcotest.test_case "geometry" `Quick test_region_geometry;
          Alcotest.test_case "lazy backing" `Quick test_region_lazy_backing;
          Alcotest.test_case "extent-sized backing" `Quick test_region_extent_sized_backing;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "basics" `Quick test_alloc_basics;
          Alcotest.test_case "kind separation" `Quick test_alloc_kind_separation;
          Alcotest.test_case "unmapped addresses" `Quick test_unmapped;
          Alcotest.test_case "regions in order" `Quick test_regions_listed_in_order;
          qtest alloc_no_overlap;
          qtest region_lookup_consistent;
        ] );
      ( "access",
        [
          qtest roundtrip_f64;
          qtest roundtrip_int;
          qtest roundtrip_i32;
          Alcotest.test_case "u8 masking" `Quick test_u8;
          Alcotest.test_case "per-processor isolation" `Quick test_per_proc_isolation;
          Alcotest.test_case "bytes and copy_range" `Quick test_bytes_and_copy_range;
          Alcotest.test_case "backing_slice is live" `Quick test_backing_slice_is_live;
          qtest ranges_equal_matches_bytewise;
          Alcotest.test_case "reads past the extent" `Quick test_reads_past_extent;
          Alcotest.test_case "growth after the cache" `Quick test_growth_after_cache;
          Alcotest.test_case "ranges across growth" `Quick test_ranges_across_growth;
          Alcotest.test_case "touched unchanged" `Quick test_touched_unchanged;
        ] );
    ]
