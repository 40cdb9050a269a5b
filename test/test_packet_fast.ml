(* Equivalence suite for the allocation-free packet hot path.

   Every fast-path rewrite (word-at-a-time accessors, the unrolled
   RFC 1071 checksum, native-int FNV-1a, the packed flow key, the
   batch's flow-key column) is checked against a deliberately naive
   reference implementation: byte-at-a-time reads off the raw buffer,
   a loop checksum, and the historical Int64 hash chain. *)

open Netstack

let fresh_packet ?(bytes = 2048) () = Packet.of_bytes ~addr:0x100000 (Bytes.create bytes)

(* An off-heap twin of [fresh_packet]: one slot of a 1-slot Bigarray
   slab, for the slab-vs-bytes accessor equivalence property. *)
let fresh_packet_slab ?(bytes = 2048) () =
  let slots = Slab.make_slots Slab.Off_heap ~slots:1 ~bytes in
  Packet.of_buf ~addr:0x100000 slots.(0)

let craft p (flow : Flow.t) ~payload_bytes ~ttl =
  match flow.Flow.protocol with
  | Flow.Udp -> Packet.craft_udp p ~flow ~payload_bytes ~ttl
  | Flow.Tcp -> Packet.craft_tcp p ~flow ~payload_bytes ~ttl

let gen_flow =
  QCheck.Gen.(
    map
      (fun (((src_ip, dst_ip), (src_port, dst_port)), tcp) ->
        Flow.make ~src_ip ~dst_ip ~src_port ~dst_port
          ~protocol:(if tcp then Flow.Tcp else Flow.Udp))
      (pair (pair (pair ui32 ui32) (pair (int_range 0 65535) (int_range 0 65535))) bool))

let arb_flow = QCheck.make ~print:(Format.asprintf "%a" Flow.pp) gen_flow

let arb_crafted =
  QCheck.make
    ~print:(fun (f, (payload, ttl)) ->
      Format.asprintf "%a payload=%d ttl=%d" Flow.pp f payload ttl)
    QCheck.Gen.(pair gen_flow (pair (int_range 0 500) (int_range 1 255)))

(* ------------------------------------------------------------------ *)
(* Reference implementations                                           *)
(* ------------------------------------------------------------------ *)

(* The historical FNV-1a: full-width Int64 chain, masked to 62 bits
   only at the very end. Flow.hash must be bit-identical. *)
let fnv64_ref basis (f : Flow.t) =
  let feed acc b =
    Int64.mul (Int64.logxor acc (Int64.of_int (b land 0xff))) 0x100000001B3L
  in
  let feed_u32 acc (v : int32) =
    let v = Int32.to_int v land 0xFFFFFFFF in
    feed (feed (feed (feed acc v) (v lsr 8)) (v lsr 16)) (v lsr 24)
  in
  let acc = feed_u32 basis f.Flow.src_ip in
  let acc = feed_u32 acc f.Flow.dst_ip in
  let acc = feed (feed acc f.Flow.src_port) (f.Flow.src_port lsr 8) in
  let acc = feed (feed acc f.Flow.dst_port) (f.Flow.dst_port lsr 8) in
  let acc = feed acc (Flow.protocol_number f.Flow.protocol) in
  Int64.to_int (Int64.logand acc 0x3FFFFFFFFFFFFFFFL)

(* Byte-at-a-time big-endian reads straight off the buffer. *)
let byte p off = Char.code (Slab.get p.Packet.buf off)
let u16_ref p off = (byte p off lsl 8) lor byte p (off + 1)

let u32_ref p off =
  (byte p off lsl 24) lor (byte p (off + 1) lsl 16) lor (byte p (off + 2) lsl 8)
  lor byte p (off + 3)

(* RFC 1071 as a plain loop over the ten header words, checksum field
   (word 5) read as zero. *)
let checksum_ref p =
  let off = Packet.eth_header_bytes in
  let sum = ref 0 in
  for w = 0 to 9 do
    if w <> 5 then sum := !sum + u16_ref p (off + (w * 2))
  done;
  while !sum > 0xFFFF do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  lnot !sum land 0xFFFF

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_fnv_matches_int64 =
  QCheck.Test.make ~name:"native-int FNV == historical Int64 FNV" ~count:500 arb_flow
    (fun f ->
      Flow.hash f = fnv64_ref 0xCBF29CE484222325L f
      && Flow.hash2 f = fnv64_ref 0x84222325CBF29CE4L f)

let prop_key_pack_matches_hash =
  QCheck.Test.make ~name:"Key.pack == Key.of_flow == hash, and is non-negative" ~count:500
    arb_flow (fun f ->
      let packed =
        Flow.Key.pack
          ~src_ip:(Int32.to_int f.Flow.src_ip land 0xFFFFFFFF)
          ~dst_ip:(Int32.to_int f.Flow.dst_ip land 0xFFFFFFFF)
          ~src_port:f.Flow.src_port ~dst_port:f.Flow.dst_port
          ~proto:(Flow.protocol_number f.Flow.protocol)
      in
      packed = Flow.hash f && Flow.Key.of_flow f = packed && packed >= 0
      && not (Flow.Key.is_none packed))

let prop_word_accessors =
  QCheck.Test.make ~name:"word accessors == byte-at-a-time reads" ~count:300 arb_crafted
    (fun (f, (payload_bytes, ttl)) ->
      let p = fresh_packet () in
      craft p f ~payload_bytes ~ttl;
      let ip_off = Packet.eth_header_bytes in
      Packet.src_ip_int p = u32_ref p (ip_off + 12)
      && Packet.dst_ip_int p = u32_ref p (ip_off + 16)
      && Packet.src_port p = u16_ref p (ip_off + 20)
      && Packet.dst_port p = u16_ref p (ip_off + 22)
      && Packet.ip_total_length p = u16_ref p (ip_off + 2)
      && Packet.ethertype p = u16_ref p 12)

let prop_slab_equivalence =
  (* The Bytes and Bigarray backings must be observationally identical:
     craft the same packet into both, push it through the same rewrite
     sequence, and every accessor and the full wire image must agree. *)
  QCheck.Test.make ~name:"off-heap slab backing == Bytes backing" ~count:300
    QCheck.(pair arb_crafted (pair (int_range 0 0xFFFFFFFF) (int_range 0 65535)))
    (fun ((f, (payload_bytes, ttl)), (new_dst, new_port)) ->
      let ph = fresh_packet () in
      let po = fresh_packet_slab () in
      craft ph f ~payload_bytes ~ttl;
      craft po f ~payload_bytes ~ttl;
      (* [flow] guards the 5-tuple accessors: on a GRE outer header
         (protocol 47) they raise — identically for both backings,
         which the tunnelled step checks instead. *)
      let agree ~flow () =
        Packet.to_string ph = Packet.to_string po
        && Packet.src_ip_int ph = Packet.src_ip_int po
        && Packet.dst_ip_int ph = Packet.dst_ip_int po
        && Packet.ttl ph = Packet.ttl po
        && Packet.ipv4_checksum_ok ph = Packet.ipv4_checksum_ok po
        && ((not flow)
           || Packet.src_port ph = Packet.src_port po
              && Packet.dst_port ph = Packet.dst_port po
              && Packet.flow_key ph = Packet.flow_key po)
      in
      let raises_invalid f = match f () with _ -> false | exception Invalid_argument _ -> true in
      let agree = agree ~flow:true and agree_gre = agree ~flow:false in
      let ok0 = agree () in
      Packet.set_dst_ip_int ph new_dst;
      Packet.set_dst_ip_int po new_dst;
      Packet.set_src_port ph new_port;
      Packet.set_src_port po new_port;
      let ok1 = agree () in
      Packet.encap_gre ph ~outer_src:0xC0A80001 ~outer_dst:0x0A010005;
      Packet.encap_gre po ~outer_src:0xC0A80001 ~outer_dst:0x0A010005;
      let ok2 =
        agree_gre () && Packet.is_gre ph && Packet.is_gre po
        && raises_invalid (fun () -> Packet.flow_key ph)
        && raises_invalid (fun () -> Packet.flow_key po)
      in
      Packet.decap_gre ph;
      Packet.decap_gre po;
      ok0 && ok1 && ok2 && agree ())

let prop_checksum_unrolled =
  QCheck.Test.make ~name:"unrolled RFC1071 == loop reference, through rewrites" ~count:300
    QCheck.(pair arb_crafted (pair int32 (int_range 0 65535)))
    (fun ((f, (payload_bytes, ttl)), (new_dst, new_port)) ->
      let p = fresh_packet () in
      craft p f ~payload_bytes ~ttl;
      let stored () = u16_ref p (Packet.eth_header_bytes + 10) in
      let ok0 = stored () = checksum_ref p && Packet.ipv4_checksum_ok p in
      (* Every rewrite re-installs via the incremental path; the loop
         reference must still agree. *)
      Packet.set_dst_ip_int p (Int32.to_int new_dst land 0xFFFFFFFF);
      let ok1 = stored () = checksum_ref p in
      Packet.set_src_port p new_port;
      if ttl > 1 then Packet.set_ttl p (ttl - 1);
      ok0 && ok1 && stored () = checksum_ref p && Packet.ipv4_checksum_ok p)

let prop_flow_key_off_the_wire =
  QCheck.Test.make ~name:"Packet.flow_key == hash of Packet.flow_of" ~count:300 arb_crafted
    (fun (f, (payload_bytes, ttl)) ->
      let p = fresh_packet () in
      craft p f ~payload_bytes ~ttl;
      Packet.flow_key p = Flow.hash (Packet.flow_of p)
      && Flow.equal (Packet.flow_of p) f)

let prop_payload_pattern =
  QCheck.Test.make ~name:"payload fill == i mod 256 pattern" ~count:200 arb_crafted
    (fun (f, (payload_bytes, ttl)) ->
      let p = fresh_packet () in
      craft p f ~payload_bytes ~ttl;
      let ok = ref (Packet.payload_length p = payload_bytes) in
      for i = 0 to payload_bytes - 1 do
        if Packet.read_payload_byte p i <> i mod 256 then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Flow key as a header-plane column                                   *)
(* ------------------------------------------------------------------ *)

(* Push [p] (crafted from [f]) with the plane seeded the way NIC rx
   seeds it. *)
let push_seeded b p f =
  Batch.push b p;
  Batch.seed_hdr b (Batch.length b - 1) ~flow:f ~key:(Flow.Key.of_flow f) ~ttl:(Packet.ttl p)
    ~ip_len:(Packet.ip_total_length p) ~csum:(Packet.stored_checksum p)

(* Every slot's key — derived on demand — must agree with a fresh
   parse of the materialized bytes: seeded, rewritten or compacted. *)
let keys_consistent b =
  Batch.materialize b;
  let ok = ref true in
  for i = 0 to Batch.length b - 1 do
    ignore (Batch.flow_key b i);
    if not (Batch.hdr_consistent b i) then ok := false
  done;
  !ok

let prop_sidecar_rewrites =
  QCheck.Test.make ~name:"sidecar stays consistent through NAT/maglev/GRE rewrites"
    ~count:200
    QCheck.(pair arb_crafted (pair int32 (int_range 0 65535)))
    (fun ((f, (payload_bytes, ttl)), (new_ip, new_port)) ->
      let p = fresh_packet () in
      craft p f ~payload_bytes ~ttl;
      let b = Batch.create ~capacity:4 in
      push_seeded b p f;
      let seeded = Batch.flow b 0 == f && keys_consistent b in
      (* A TTL-only byte rewrite drops the plane but keeps the tuple:
         the re-derived flow is still the interned record. *)
      Packet.set_ttl p ((ttl + 1) land 0xFF);
      Batch.invalidate_hdr b 0;
      let after_ttl = Batch.flow b 0 == f && keys_consistent b in
      (* Maglev-style dst rewrite through the column alone. *)
      Batch.set_col_dst_ip b 0 (Int32.to_int new_ip land 0xFFFFFFFF);
      let after_dst = keys_consistent b in
      (* NAT-style src rewrite. *)
      Batch.set_col_src_ip b 0 (Int32.to_int new_ip land 0xFFFFFFFF);
      Batch.set_col_src_port b 0 new_port;
      let after_nat = keys_consistent b in
      (* GRE encap makes the 5-tuple unparsable (protocol 47): the slot
         must fail like the wire parse; decap restores the inner tuple
         and the key must re-derive to exactly it. *)
      let inner = Packet.flow_of p in
      Packet.encap_gre p ~outer_src:0xC0A80001 ~outer_dst:0x0A010005;
      Batch.invalidate_hdr b 0;
      let after_encap =
        Packet.is_gre p
        && (match Batch.flow b 0 with _ -> false | exception Invalid_argument _ -> true)
      in
      Packet.decap_gre p;
      Batch.invalidate_hdr b 0;
      seeded && after_ttl && after_dst && after_nat && after_encap && keys_consistent b
      && Flow.equal (Batch.flow b 0) inner)

let prop_sidecar_compaction =
  QCheck.Test.make ~name:"filteri_in_place compacts the sidecar with the packets"
    ~count:200
    QCheck.(pair (make Gen.(list_size (int_range 1 24) gen_flow)) (int_range 0 0xFFFF))
    (fun (flows, salt) ->
      let b = Batch.create ~capacity:32 in
      List.iter
        (fun f ->
          let p = fresh_packet () in
          craft p f ~payload_bytes:16 ~ttl:8;
          push_seeded b p f)
        flows;
      (* Drop a pseudo-random subset, rewriting some survivors so both
         keyed and re-keyed slots get compacted. *)
      let dropped =
        Batch.filteri_in_place b (fun i _p ->
            if (i + salt) mod 3 = 0 then false
            else begin
              if (i + salt) mod 2 = 0 then Batch.set_col_src_port b i ((salt + i) land 0xFFFF);
              true
            end)
      in
      List.length dropped + Batch.length b = List.length flows && keys_consistent b)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_fnv_matches_int64;
      prop_key_pack_matches_hash;
      prop_word_accessors;
      prop_slab_equivalence;
      prop_checksum_unrolled;
      prop_flow_key_off_the_wire;
      prop_payload_pattern;
      prop_sidecar_rewrites;
      prop_sidecar_compaction;
    ]

let () = Alcotest.run "packet_fast" [ ("equivalence", suite) ]
