(** Versioned binary wire formats for {!Snet.Record.t}.

    Two formats share one value core: a tag value is an i64, a field
    value is a u32 payload length and the payload its codec writes.
    They differ in where the labels go.

    {2 Canonical frames}

    One self-describing record, used wherever a record is stored on its
    own: the journal, {!Statecodec}, snapshots and the HTTP gateway.

    {v
    offset  size  content
    0       4     magic "SNRW"
    4       1     version (currently 1)
    5       4     body length, u32 big-endian
    9       n     body
    9+n     4     CRC-32 of the body, u32 big-endian
    v}

    and the body is the record in canonical label order (labels sorted,
    exactly {!Snet.Record.fields}/[tags] order):

    {v
    u16 tag count
      per tag:   u16 label length, label bytes, i64 value
    u16 field count
      per field: u16 label length, label bytes,
                 u16 codec-name length, codec-name bytes,
                 u32 payload length, payload bytes
    v}

    The encoding is canonical and checksummed: {!render} of equal
    records yields identical bytes, [render (read f) = f] byte-for-byte
    (the {!Obsv.Export} contract), and any single-byte corruption or
    truncation of a frame is detected by {!read}.

    {2 Envelopes}

    A run of records on a cut edge ({!Proto} [Data] and [Data_batch]).
    In S-Net the type system fixes which label sets (variants) flow
    along an edge, so an envelope names each variant it uses once and
    then sends values only:

    {v
    4 bytes magic "SNRW" (as a frame)
    u8  envelope version (2; frames are version 1)
    u32 record count
    u32 variant count
    per variant (labels strictly increasing, as in a frame body):
      u16 tag count,   per tag:   u16 label length, label bytes
      u16 field count, per field: u16 label length, label bytes,
                                  u16 codec-name length, codec-name bytes
    per record:
      variant index (unsigned LEB128, one byte below 128)
      per tag of its variant:   i64 value
      per field of its variant: u32 payload length, payload bytes
    u32 CRC-32 of everything after the version byte
    v}

    The envelope runs to the end of its message. The table travels in
    every envelope and the encoder builds it from that envelope's
    records alone, so envelopes are stateless: a resend, a migration
    or a fresh connection needs no table sync. {!read_envelope} refuses a frame
    (version 1) where an envelope belongs, checks the CRC before it
    parses anything, rejects labels out of canonical order, variant
    indexes outside the table and counts the bytes cannot hold (before
    allocating for them), and returns every error as a value. A record of three tags costs 25 bytes plus its share
    of the table; its frame costs 59 with labels [bid], [dist_seq] and
    [x].

    {2 Codecs}

    Field payloads are produced by {e codecs} registered per
    {!Snet.Value.Key.key}: S-Net treats field values as opaque, so only
    values whose key has a registered codec can travel. The codec is
    looked up by the key's {e name} — the sending and receiving
    processes each register their own key under the same name (keys
    themselves cannot cross a process boundary).

    {2 Hot-path contexts}

    Encode and decode are allocation-hoisted through a {!ctx}: a
    reusable scratch arena (codec payloads stream straight into the
    bytes under construction behind a backpatched length prefix — no
    intermediate per-field string) plus a codec cache that resolves the
    registry's mutex-guarded lookup once per key name. The cache is
    stamped with the registry {e generation} and drops its entries
    whenever {!register} has been called since — so a ctx held open for
    the lifetime of an edge stays correct across late registrations.
    A decoding ctx also keeps the last envelope table it parsed, and
    reuses that parse when the next table's bytes are equal (dropped on
    a registry change like the codec cache).
    Calls without an explicit ctx borrow a per-domain default. *)

val magic : string
(** ["SNRW"]. *)

val version : int

(** {1 Codecs} *)

val register :
  'a Snet.Value.Key.key ->
  encode:('a -> string) ->
  decode:(string -> 'a) ->
  unit
(** Make values injected under the key serializable. [decode] may
    raise on malformed payloads; {!read} converts the raise into an
    [Error]. Registering a second codec under the same key name
    replaces the first (and invalidates every ctx codec cache). The
    built-in integer key ({!Snet.Value.of_int}) and the supervision
    string key ({!Snet.Supervise.string_key}, which carries
    [error_msg]/[error_box]) are pre-registered, so error-stamped
    records always travel. *)

val registered : string -> bool
(** Whether a codec exists under the given key name. *)

val register_nd_int : int Sacarray.Nd.t Snet.Value.Key.key -> unit
(** Register the built-in codec for n-dimensional integer arrays
    (rank, extents, then one i64 per element, row-major). *)

val register_nd_bool : bool Sacarray.Nd.t Snet.Value.Key.key -> unit
(** Same for boolean arrays; elements are bit-packed. *)

val string_key : string Snet.Value.Key.key
(** A pre-registered general-purpose string key (name ["dist.string"])
    for applications that ship plain strings. *)

val float_key : float Snet.Value.Key.key
(** Pre-registered (name ["dist.float"]; IEEE-754 bits). *)

(** {1 Contexts} *)

type ctx
(** Reusable encode/decode state: scratch arena + cached codec
    resolutions. Not safe for concurrent use by two threads — give
    each thread that encodes or decodes its own. *)

val ctx : unit -> ctx

(** {1 Frames} *)

exception Unencodable of string
(** Raised by {!render} and {!envelope} when a field value's key has no
    registered codec; the message names the key and the field label. *)

val render : ?ctx:ctx -> Snet.Record.t -> string
(** One complete frame. @raise Unencodable on unregistered keys. *)

val read : ?ctx:ctx -> string -> (Snet.Record.t, string) result
(** Parse exactly one frame (trailing bytes are an error). Bad magic,
    unsupported version, length mismatch, CRC mismatch, truncation,
    unknown codec names and codec decode failures all come back as
    [Error] with a description — never an exception. *)

val validate : string -> (unit, string) result
(** [read] then re-[render] and require byte equality. *)

(** {1 Envelopes} *)

val envelope : ?ctx:ctx -> prefix:char -> Snet.Record.t list -> string
(** [prefix] (the {!Proto} message kind), then the envelope of [rs] in
    order. @raise Unencodable like {!render}. *)

val read_envelope :
  ?ctx:ctx -> string -> pos:int -> (Snet.Record.t list, string) result
(** Parse the envelope occupying [s] from [pos] to its end. Errors come
    back as [Error], never as an exception. *)

val crc32 : string -> int32
(** The checksum used by frames and envelopes (IEEE 802.3 polynomial),
    exposed for tests. *)
