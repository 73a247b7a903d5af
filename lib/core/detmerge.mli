(** The deterministic-merge protocol of the concurrent engine.

    S-Net's deterministic combinators ([|], [*], [!]) must release
    records in the causal order of the records that entered the
    combinator, even though branches run asynchronously and a branch
    may turn one record into many — or none. Production S-Net solves
    this with {e sort records}; this module implements the equivalent
    bookkeeping:

    - the combinator's {e entry} stamps each incoming record with a
      fresh sequence number and registers one in-flight descendant
      ({!stamp});
    - every component that turns one record into [n] adjusts the
      in-flight count of each enclosing region ({!account}); a count
      reaching zero notifies the region's collector;
    - records additionally carry their {e emission path} (the index of
      each emission that produced them), so the collector can restore
      depth-first emission order within a sequence number;
    - the {e collector} buffers arriving descendants
      ({!collector_data}) and, when a sequence number completes
      ({!collector_complete} or the final decrement), releases
      sequence numbers in order, each sorted into DFS order.

    The collector functions must be called from a single consumer (an
    actor or a dedicated thread); the count table is safe for
    concurrent {!account} calls from anywhere. *)

type region

type token = private {
  region : region;
  seq : int;
}

type meta = {
  tokens : token list;  (** Innermost deterministic region first. *)
  path : int list;  (** Reversed emission-index path from the input. *)
}

val root_meta : int -> meta
(** Metadata for the [i]-th record injected into the network. *)

val child_meta : meta -> int -> meta
(** Metadata for the [i]-th record emitted while consuming a record
    with the given metadata. *)

val create_region : id:int -> region
(** A region for one deterministic combinator instance. Set
    {!set_notify} before any record enters. *)

val region_id : region -> int

val set_notify : region -> (int -> unit) -> unit
(** [notify seq] is invoked (from whichever thread performed the final
    decrement) when [seq] has no descendants left in flight anywhere
    except the collector's buffer; it must cause
    {!collector_complete} to run in the collector's context. *)

val stamp : region -> meta -> meta
(** Entry-side: allocate the next sequence number, register one
    in-flight descendant, push the token. *)

val account : meta -> int -> unit
(** A component consumed a record carrying [meta] and emitted [n]
    records; updates every enclosing region and fires notifications on
    zero. Call {e before} forwarding the outputs downstream. *)

val collector_data : region -> meta -> Record.t -> (meta * Record.t) list
(** The collector received a descendant: pop this region's token,
    buffer the record, retire it from the in-flight count. Returns the
    records (with remaining outer tokens) that become releasable, in
    order. *)

val collector_complete : region -> int -> (meta * Record.t) list
(** A zero-count notification for [seq] arrived in the collector's
    context. Returns releasable records as above. *)

val buffered : region -> int
(** Number of sequence numbers with buffered, unreleased records —
    zero after quiescence unless the protocol was violated. *)
