(* Placeholder for the flow memo column of never-keyed slots; never
   observable through the API (guarded by [hp_keyed]). *)
let no_flow =
  Flow.make ~src_ip:0l ~dst_ip:0l ~src_port:0 ~dst_port:0 ~protocol:Flow.Udp

(* Placeholder for empty packet slots; never observable through the API
   (guarded by [len]). A plain array with a sentinel instead of an
   option array: wrapping every pushed packet in [Some] would allocate
   a box per packet per rx refill on the fast path. *)
let no_packet = { Packet.buf = Slab.of_bytes Bytes.empty; len = 0; addr = 0; slot = -1 }

type t = {
  mutable pkts : Packet.t array;
  mutable len : int;
  (* Header plane: structure-of-arrays columns holding the one parse of
     each packet's L3/L4 header — the batch's only per-packet header
     cache. [hp_state.(i)] is 0 when slot [i] has no plane (never
     seeded, or invalidated by a byte-level rewrite); otherwise it
     carries [hp_valid], the per-column dirty bits of {!Packet}
     ([dirty_ttl] ...) and [hp_keyed]. Column stages read and write
     these unboxed ints; wire bytes are only touched again at
     {!materialize}. *)
  hp_state : int array;
  hp_src_ip : int array;
  hp_dst_ip : int array;
  hp_src_port : int array;  (* -1 when the protocol carries no ports *)
  hp_dst_port : int array;
  hp_proto : int array;
  hp_ttl : int array;
  hp_ip_len : int array;
  hp_csum : int array;
  (* The flow key, a column derived from the address columns: under
     [hp_keyed], [hp_key.(i)] is their packed 5-tuple and [hp_flow.(i)]
     a record equal to it — the generator's interned one wherever
     possible, so physical-equality memos downstream keep hitting. *)
  hp_key : int array;
  hp_flow : Flow.t array;
  (* Conservative count of slots whose plane carries dirty bits: bumped
     on every clean->dirty transition, reset only by a full
     {!materialize} or {!clear}. Never undercounts (compaction and
     re-seeding may leave it high), so zero proves the batch clean and
     lets every barrier of a read-only pipeline skip the scan. *)
  mutable hp_dirty_n : int;
}

let hp_valid = 32
let hp_keyed = 64
let hp_dirty_mask = hp_valid - 1

let create ~capacity =
  if capacity <= 0 then invalid_arg "Batch.create: capacity must be positive";
  {
    pkts = Array.make capacity no_packet;
    len = 0;
    hp_state = Array.make capacity 0;
    hp_src_ip = Array.make capacity 0;
    hp_dst_ip = Array.make capacity 0;
    hp_src_port = Array.make capacity (-1);
    hp_dst_port = Array.make capacity (-1);
    hp_proto = Array.make capacity 0;
    hp_ttl = Array.make capacity 0;
    hp_ip_len = Array.make capacity 0;
    hp_csum = Array.make capacity 0;
    hp_key = Array.make capacity Flow.Key.none;
    hp_flow = Array.make capacity no_flow;
    hp_dirty_n = 0;
  }

let length t = t.len
let capacity t = Array.length t.pkts
let is_empty t = t.len = 0

let push t p =
  if t.len = Array.length t.pkts then invalid_arg "Batch.push: batch full";
  t.pkts.(t.len) <- p;
  t.hp_state.(t.len) <- 0;
  t.len <- t.len + 1

let of_list ps =
  let b = create ~capacity:(max 1 (List.length ps)) in
  List.iter (push b) ps;
  b

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Batch.get: out of bounds";
  t.pkts.(i)

(* --- Header plane (SoA columns) -------------------------------------- *)

let check_slot op t i =
  if i < 0 || i >= t.len then invalid_arg ("Batch." ^ op ^ ": out of bounds")

(* Copy slot [i]'s plane, key included, to [dst]'s slot [j]. *)
let[@inline] copy_slot src i dst j =
  dst.hp_state.(j) <- src.hp_state.(i);
  dst.hp_src_ip.(j) <- src.hp_src_ip.(i);
  dst.hp_dst_ip.(j) <- src.hp_dst_ip.(i);
  dst.hp_src_port.(j) <- src.hp_src_port.(i);
  dst.hp_dst_port.(j) <- src.hp_dst_port.(i);
  dst.hp_proto.(j) <- src.hp_proto.(i);
  dst.hp_ttl.(j) <- src.hp_ttl.(i);
  dst.hp_ip_len.(j) <- src.hp_ip_len.(i);
  dst.hp_csum.(j) <- src.hp_csum.(i);
  dst.hp_key.(j) <- src.hp_key.(i);
  dst.hp_flow.(j) <- src.hp_flow.(i)

let blit_hdr src i dst j =
  check_slot "blit_hdr" src i;
  check_slot "blit_hdr" dst j;
  if src.hp_state.(i) land hp_dirty_mask <> 0 then
    (* The copied plane carries deferred writes: keep the destination's
       dirty count an upper bound so its barriers still scan. *)
    dst.hp_dirty_n <- dst.hp_dirty_n + 1;
  copy_slot src i dst j

let seed_hdr t i ~flow ~key ~ttl ~ip_len ~csum =
  check_slot "seed_hdr" t i;
  t.hp_src_ip.(i) <- Int32.to_int flow.Flow.src_ip land 0xFFFFFFFF;
  t.hp_dst_ip.(i) <- Int32.to_int flow.Flow.dst_ip land 0xFFFFFFFF;
  t.hp_src_port.(i) <- flow.Flow.src_port;
  t.hp_dst_port.(i) <- flow.Flow.dst_port;
  t.hp_proto.(i) <- Flow.protocol_number flow.Flow.protocol;
  t.hp_ttl.(i) <- ttl;
  t.hp_ip_len.(i) <- ip_len;
  t.hp_csum.(i) <- csum;
  t.hp_key.(i) <- key;
  t.hp_flow.(i) <- flow;
  t.hp_state.(i) <- hp_valid lor hp_keyed

let invalidate_hdr t i =
  check_slot "invalidate_hdr" t i;
  t.hp_state.(i) <- 0

(* Lazy load for a plane-less slot: one parse from wire bytes. Raises
   like the {!Packet} accessors on non-IPv4 slots; ports are recorded
   as [-1] for protocols that carry none (GRE outer headers), making
   the port columns raise exactly where {!Packet.src_port} would. *)
let load_hdr t i =
  let p = get t i in
  let proto = Packet.protocol_number p in
  t.hp_src_ip.(i) <- Packet.src_ip_int p;
  t.hp_dst_ip.(i) <- Packet.dst_ip_int p;
  t.hp_proto.(i) <- proto;
  t.hp_ttl.(i) <- Packet.ttl p;
  t.hp_ip_len.(i) <- Packet.ip_total_length p;
  t.hp_csum.(i) <- Packet.stored_checksum p;
  if (proto = 6 || proto = 17) && p.Packet.len >= Packet.eth_header_bytes + Packet.ipv4_header_bytes + 4
  then begin
    t.hp_src_port.(i) <- Packet.src_port p;
    t.hp_dst_port.(i) <- Packet.dst_port p
  end
  else begin
    t.hp_src_port.(i) <- -1;
    t.hp_dst_port.(i) <- -1
  end;
  t.hp_state.(i) <- hp_valid

let[@inline] ensure_hdr op t i =
  check_slot op t i;
  if t.hp_state.(i) = 0 then load_hdr t i

(* Re-derive slot [i]'s key from its address columns. The memo record
   is kept while its fields still match — a TTL-only byte rewrite
   drops the plane but not the tuple — so only a changed tuple
   allocates a new record. *)
let derive_key t i =
  let src_port = t.hp_src_port.(i) in
  if src_port < 0 then begin
    (* No ports (GRE outer header): fail exactly like the wire parse. *)
    ignore (Packet.flow_of (get t i));
    invalid_arg "Batch.flow: protocol carries no ports"
  end;
  let src_ip = t.hp_src_ip.(i) and dst_ip = t.hp_dst_ip.(i) in
  let dst_port = t.hp_dst_port.(i) and proto = t.hp_proto.(i) in
  let m = t.hp_flow.(i) in
  if
    not
      (Int32.to_int m.Flow.src_ip land 0xFFFFFFFF = src_ip
      && Int32.to_int m.Flow.dst_ip land 0xFFFFFFFF = dst_ip
      && m.Flow.src_port = src_port && m.Flow.dst_port = dst_port
      && Flow.protocol_number m.Flow.protocol = proto)
  then
    t.hp_flow.(i) <-
      Flow.make ~src_ip:(Int32.of_int src_ip) ~dst_ip:(Int32.of_int dst_ip) ~src_port
        ~dst_port
        ~protocol:(if proto = 6 then Flow.Tcp else Flow.Udp);
  t.hp_key.(i) <- Flow.Key.pack ~src_ip ~dst_ip ~src_port ~dst_port ~proto;
  t.hp_state.(i) <- t.hp_state.(i) lor hp_keyed

let flow t i =
  ensure_hdr "flow" t i;
  if t.hp_state.(i) land hp_keyed = 0 then derive_key t i;
  t.hp_flow.(i)

let flow_key t i =
  ensure_hdr "flow_key" t i;
  if t.hp_state.(i) land hp_keyed = 0 then derive_key t i;
  t.hp_key.(i)

(* Set dirty bit [bit] on slot [i], counting the clean->dirty
   transition for {!materialize}'s skip test. Every column but TTL is
   part of the 5-tuple, so writing one drops the derived key. *)
let[@inline] mark_dirty t i bit =
  let st = t.hp_state.(i) in
  if st land hp_dirty_mask = 0 then t.hp_dirty_n <- t.hp_dirty_n + 1;
  let st = if bit = Packet.dirty_ttl then st else st land lnot hp_keyed in
  t.hp_state.(i) <- st lor bit

let col_ttl t i =
  ensure_hdr "col_ttl" t i;
  t.hp_ttl.(i)

let set_col_ttl t i v =
  ensure_hdr "set_col_ttl" t i;
  if v < 0 || v > 255 then invalid_arg "Batch.set_col_ttl";
  t.hp_ttl.(i) <- v;
  mark_dirty t i Packet.dirty_ttl

let col_src_ip t i =
  ensure_hdr "col_src_ip" t i;
  t.hp_src_ip.(i)

let set_col_src_ip t i v =
  ensure_hdr "set_col_src_ip" t i;
  t.hp_src_ip.(i) <- v land 0xFFFFFFFF;
  mark_dirty t i Packet.dirty_src_ip

let col_dst_ip t i =
  ensure_hdr "col_dst_ip" t i;
  t.hp_dst_ip.(i)

let set_col_dst_ip t i v =
  ensure_hdr "set_col_dst_ip" t i;
  t.hp_dst_ip.(i) <- v land 0xFFFFFFFF;
  mark_dirty t i Packet.dirty_dst_ip

let port_col op v =
  if v < 0 then invalid_arg ("Batch." ^ op ^ ": protocol carries no ports") else v

let col_src_port t i =
  ensure_hdr "col_src_port" t i;
  port_col "col_src_port" t.hp_src_port.(i)

let set_col_src_port t i v =
  ensure_hdr "set_col_src_port" t i;
  ignore (port_col "set_col_src_port" t.hp_src_port.(i));
  if v < 0 || v > 0xffff then invalid_arg "Batch.set_col_src_port";
  t.hp_src_port.(i) <- v;
  mark_dirty t i Packet.dirty_src_port

let col_dst_port t i =
  ensure_hdr "col_dst_port" t i;
  port_col "col_dst_port" t.hp_dst_port.(i)

let set_col_dst_port t i v =
  ensure_hdr "set_col_dst_port" t i;
  ignore (port_col "set_col_dst_port" t.hp_dst_port.(i));
  if v < 0 || v > 0xffff then invalid_arg "Batch.set_col_dst_port";
  t.hp_dst_port.(i) <- v;
  mark_dirty t i Packet.dirty_dst_port

let col_proto t i =
  ensure_hdr "col_proto" t i;
  t.hp_proto.(i)

let col_ip_len t i =
  ensure_hdr "col_ip_len" t i;
  t.hp_ip_len.(i)

let materialize t =
  (* [hp_dirty_n] is a conservative upper bound (compaction may drop
     dirty slots without decrementing), so zero means provably clean —
     the common case at every barrier of a read-only pipeline. *)
  if t.hp_dirty_n <> 0 then begin
    for i = 0 to t.len - 1 do
      let st = Array.unsafe_get t.hp_state i in
      if st land hp_dirty_mask <> 0 then begin
        t.hp_csum.(i) <-
          Packet.apply_hdr t.pkts.(i) ~dirty:(st land hp_dirty_mask) ~ttl:t.hp_ttl.(i)
            ~src_ip:t.hp_src_ip.(i) ~dst_ip:t.hp_dst_ip.(i) ~src_port:t.hp_src_port.(i)
            ~dst_port:t.hp_dst_port.(i);
        t.hp_state.(i) <- st land lnot hp_dirty_mask
      end
    done;
    t.hp_dirty_n <- 0
  end

let hdr_consistent t i =
  check_slot "hdr_consistent" t i;
  let st = t.hp_state.(i) in
  if st = 0 || st land hp_dirty_mask <> 0 then
    (* No plane, or writes still deferred: nothing claims the bytes are
       current, so there is nothing to audit. *)
    true
  else begin
    let p = get t i in
    Packet.protocol_number p = t.hp_proto.(i)
    && Packet.ttl p = t.hp_ttl.(i)
    && Packet.src_ip_int p = t.hp_src_ip.(i)
    && Packet.dst_ip_int p = t.hp_dst_ip.(i)
    && Packet.ip_total_length p = t.hp_ip_len.(i)
    && Packet.stored_checksum p = t.hp_csum.(i)
    && (t.hp_src_port.(i) < 0
        || (Packet.src_port p = t.hp_src_port.(i) && Packet.dst_port p = t.hp_dst_port.(i)))
    && (st land hp_keyed = 0
        ||
        let f = Packet.flow_of p in
        t.hp_key.(i) = Flow.hash f && Flow.equal t.hp_flow.(i) f)
  end

(* Forgetful-rewriter harness hook: write a column WITHOUT its dirty
   bit, simulating a buggy column stage. Only for regression tests of
   the {!hdr_consistent} audit. *)
let poke_col_for_test t i col =
  ensure_hdr "poke_col_for_test" t i;
  match col with
  | `Ttl v -> t.hp_ttl.(i) <- v
  | `Src_ip v -> t.hp_src_ip.(i) <- v land 0xFFFFFFFF
  | `Dst_ip v -> t.hp_dst_ip.(i) <- v land 0xFFFFFFFF
  | `Src_port v -> t.hp_src_port.(i) <- v
  | `Dst_port v -> t.hp_dst_port.(i) <- v

(* --- Traversal ------------------------------------------------------- *)

let iter f t =
  for i = 0 to t.len - 1 do
    f (get t i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (get t i)
  done

let fold f init t =
  let acc = ref init in
  iter (fun p -> acc := f !acc p) t;
  !acc

(* Drop every slot from [w] on. *)
let truncate t w =
  for i = w to t.len - 1 do
    t.pkts.(i) <- no_packet;
    t.hp_state.(i) <- 0
  done;
  t.len <- w

(* The keep callback sees the packet at its *original* index — the
   write cursor [w] only ever trails the read cursor, so slot [i] is
   still intact when [keep env t i p] runs and plane operations
   against index [i] land on the right slot before it is compacted
   down to [w]. Dropped packets land in the caller's scratch array, in
   encounter order; the kernel calling convention is applied directly
   so the pipeline's filter pass pays no wrapper-closure trampoline
   per packet. *)
let sieve_kernel t keep env ~dropped =
  let w = ref 0 in
  let d = ref 0 in
  for i = 0 to t.len - 1 do
    let p = get t i in
    if keep env t i p then begin
      (* Until the first drop [w = i] and the slot is already in place:
         the pass stores (and allocates) nothing — the common case for
         a filter that keeps the whole batch. *)
      if !w <> i then begin
        t.pkts.(!w) <- p;
        copy_slot t i t !w
      end;
      incr w
    end
    else begin
      dropped.(!d) <- p;
      incr d
    end
  done;
  truncate t !w;
  !d

let filteri_in_place t keep =
  let dropped = Array.make t.len no_packet in
  let d = sieve_kernel t (fun keep _t i p -> keep i p) keep ~dropped in
  Array.to_list (Array.sub dropped 0 d)

let clear t =
  truncate t 0;
  t.hp_dirty_n <- 0

let packets t =
  let ps = ref [] in
  for i = t.len - 1 downto 0 do
    ps := get t i :: !ps
  done;
  !ps

let take_all t =
  (* Ownership of the packets leaves the batch — flush any deferred
     column writes so the bytes handed out are canonical. *)
  materialize t;
  let ps = packets t in
  clear t;
  ps
