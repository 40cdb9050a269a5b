(** Packet batches.

    NetBricks "retrieves packets from DPDK in batches of user-defined
    size and feeds them to the pipeline, which processes the batch to
    completion before starting the next batch". A batch is the unit of
    ownership transfer between pipeline stages: in the isolated
    pipeline it moves across domain boundaries wrapped in a
    {!Linear.Own.t}, so "only one pipeline stage can access the batch
    at any time". *)

type t

val create : capacity:int -> t
val of_list : Packet.t list -> t

val length : t -> int
val capacity : t -> int
val is_empty : t -> bool

val push : t -> Packet.t -> unit
(** Raises [Invalid_argument] when full. The new slot has no header
    plane. *)

val get : t -> int -> Packet.t
val iter : (Packet.t -> unit) -> t -> unit
val iteri : (int -> Packet.t -> unit) -> t -> unit
val fold : ('a -> Packet.t -> 'a) -> 'a -> t -> 'a

(** {2 Header plane (SoA columns)}

    The batch's one per-packet header cache: a structure-of-arrays
    view of each packet's L3/L4 header, parsed once (seeded by the NIC
    at rx via {!seed_hdr}, or lazily from wire bytes on first access),
    mutated through the [set_col_*] writers which record a per-column
    dirty bit, and written back to wire bytes by a single
    {!materialize} pass with one accumulated RFC 1624 checksum fold per
    packet ({!Packet.apply_hdr}). The 5-tuple ({!flow}, {!flow_key}) is
    a column derived from the address columns under the same validity
    state: the address writers drop it, and the next read re-derives
    it from the columns without touching bytes.

    One rule for stage authors: write header fields through the
    columns; a stage that mutates header bytes directly (GRE
    encap/decap, flowcache replay, the [_bytes] twins) calls
    {!invalidate_hdr}, which drops the plane and the key together. The
    pipeline materializes the batch before any byte-reading stage,
    flowcache guard compare or exit — see DESIGN.md §15. All accessors
    bounds-check and raise [Invalid_argument] like {!get}. *)

val seed_hdr :
  t -> int -> flow:Flow.t -> key:Flow.Key.t -> ttl:int -> ip_len:int -> csum:int -> unit
(** Install the known header columns and 5-tuple for slot [i] without
    reading bytes — the NIC rx path knows every field it crafted. The
    caller vouches that [key = Flow.Key.of_flow flow]; [csum] is the
    checksum word as stored in the header. *)

val invalidate_hdr : t -> int -> unit
(** Drop slot [i]'s plane and key after a byte-level header mutation;
    the next access re-parses. *)

val blit_hdr : t -> int -> t -> int -> unit
(** [blit_hdr src i dst j] copies slot [i]'s plane — columns, key and
    dirty bits, valid or not — to [dst]'s slot [j], for batches whose
    packets are byte-identical copies or moves. *)

val flow : t -> int -> Flow.t
(** 5-tuple of packet [i], derived from the columns (loading them on a
    plane-less slot). A record whose fields still match is reused, so
    the generator's interned record survives rewrites that leave the
    tuple alone. Raises [Invalid_argument] like {!Packet.flow_of} on a
    packet without ports (a GRE outer header). *)

val flow_key : t -> int -> Flow.Key.t
(** Packed key of packet [i]'s 5-tuple; derived like {!flow}. *)

val col_ttl : t -> int -> int
val col_src_ip : t -> int -> int
val col_dst_ip : t -> int -> int
val col_src_port : t -> int -> int
val col_dst_port : t -> int -> int
val col_proto : t -> int -> int
val col_ip_len : t -> int -> int
(** Column readers; lazily parse a plane-less slot. The port columns
    raise [Invalid_argument] for protocols that carry no ports, like
    {!Packet.src_port}. *)

val set_col_ttl : t -> int -> int -> unit
val set_col_src_ip : t -> int -> int -> unit
val set_col_dst_ip : t -> int -> int -> unit
val set_col_src_port : t -> int -> int -> unit
val set_col_dst_port : t -> int -> int -> unit
(** Column writers: record the new value and its dirty bit; wire bytes
    are untouched until {!materialize}. The address writers also drop
    the slot's key. Setters validate ranges like the corresponding
    {!Packet} setters. *)

val materialize : t -> unit
(** Write every dirty column back to wire bytes — one pass, one
    RFC 1624 checksum fold per packet — and mark the plane clean.
    A no-op on clean slots; never charges the virtual clock (the
    column stages already charged the writes they deferred). *)

val hdr_consistent : t -> int -> bool
(** Audit hook: a slot whose plane claims to be clean must agree with
    a fresh parse of its wire bytes — columns, and the key and flow
    record too when the key is valid. Dirty or plane-less slots pass
    vacuously. *)

(**/**)

val poke_col_for_test :
  t ->
  int ->
  [ `Ttl of int | `Src_ip of int | `Dst_ip of int | `Src_port of int | `Dst_port of int ] ->
  unit
(** Write a column {e without} its dirty bit — the forgetful-rewriter
    fault the {!hdr_consistent} audit must catch. Tests only. *)

(**/**)

val filteri_in_place : t -> (int -> Packet.t -> bool) -> Packet.t list
(** Keep packets satisfying the predicate (preserving order); returns
    the dropped ones so the caller can release their buffers. The
    predicate sees the packet's (pre-compaction) index, so it can read
    and write that slot's plane; the plane is compacted alongside the
    packets. *)

val sieve_kernel :
  t -> ('e -> t -> int -> Packet.t -> bool) -> 'e -> dropped:Packet.t array -> int
(** {!filteri_in_place} without the allocation, with the filter-kernel
    calling convention applied directly ([keep env t i p]): dropped
    packets are written into [dropped] (which must hold at least
    {!length} [t] entries) in encounter order; returns how many were
    dropped. The fused pipeline's filter passes run through this with
    one reusable scratch array per pipeline. *)

val clear : t -> unit
(** Empty the batch without returning the packets (the caller already
    released or transferred the buffers). *)

val take_all : t -> Packet.t list
(** Empty the batch, returning its packets. Materializes any deferred
    column writes first — the bytes handed out are canonical. *)

val packets : t -> Packet.t list
(** Non-destructive snapshot, oldest first. *)
