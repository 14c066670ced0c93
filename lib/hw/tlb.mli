(** ASID-tagged translation lookaside buffer.

    Modelled after the ARM-style TLB of Syeda & Klein (ITP 2018): entries
    are tagged with an address-space identifier (ASID), lookups only match
    entries of the querying ASID (or global entries), and the flush
    operations mirror the hardware's [invalidate all] / [invalidate by
    ASID] / [invalidate entry] instructions.  Sect. 5.3 of the paper uses
    exactly this structure to illustrate a partitioning theorem: page-table
    changes under one ASID cannot affect TLB consistency for another. *)

type t

type entry = { asid : int; vpn : int; pfn : int; global : bool }

val create : capacity:int -> t
(** Fully-associative TLB holding at most [capacity] entries, LRU
    replacement. *)

val capacity : t -> int

val lookup : t -> asid:int -> vpn:int -> int option
(** Translation hit for this ASID (or a global entry), refreshing LRU
    state. *)

val peek : t -> asid:int -> vpn:int -> int option
(** Like [lookup] but without modifying replacement state. *)

val insert : ?global:bool -> t -> asid:int -> vpn:int -> pfn:int -> unit
(** Fill after a page walk, evicting the LRU entry when full. *)

val flush_all : t -> int
(** Invalidate everything; returns the number of entries dropped. *)

val flush_asid : t -> int -> int
(** Invalidate all non-global entries of one ASID; returns count
    dropped. *)

val invalidate : t -> asid:int -> vpn:int -> unit

val entries : t -> entry list
(** All valid entries, for invariant checking. *)

val count : t -> int

val digest : t -> int64
(** Deterministic digest of TLB contents (for the latency model).
    Memoised: translation hits only refresh recency, which the digest
    does not cover, so the hot TLB-hit path reads a cached value —
    only inserts and invalidations force a re-fold. *)

val digest_fold : t -> int64
(** [digest] recomputed from scratch, bypassing the memo — ground truth
    for {!Resource.audit}. *)

val pp : Format.formatter -> t -> unit
