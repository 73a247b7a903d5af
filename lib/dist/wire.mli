(** Versioned binary wire format for {!Snet.Record.t}.

    Records cross process boundaries as self-contained {e frames}:

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

    Field payloads are produced by {e codecs} registered per
    {!Snet.Value.Key.key}: S-Net treats field values as opaque, so only
    values whose key has a registered codec can travel. The codec is
    looked up by the key's {e name} — the sending and receiving
    processes each register their own key under the same name (keys
    themselves cannot cross a process boundary).

    The encoding is canonical and checksummed: {!render} of equal
    records yields identical bytes, [render (read f) = f] byte-for-byte
    (the {!Obsv.Export} contract), and any single-byte corruption or
    truncation of a frame is detected by {!read}.

    {2 Hot-path contexts}

    Encode and decode are allocation-hoisted through a {!ctx}: a
    reusable scratch arena (codec payloads stream straight into the
    frame under construction behind a backpatched length prefix — no
    intermediate per-field string) plus a codec cache that resolves the
    registry's mutex-guarded lookup once per key name. The cache is
    stamped with the registry {e generation} and drops its entries
    whenever {!register} has been called since — so a ctx held open for
    the lifetime of an edge stays correct across late registrations.
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
(** Raised by {!render} when a field value's key has no registered
    codec; the message names the key and the field label. *)

val render : ?ctx:ctx -> Snet.Record.t -> string
(** One complete frame. @raise Unencodable on unregistered keys. *)

val render_view : ctx -> Snet.Record.t -> Bytes.t * int
(** [(buf, len)]: the frame occupies [buf[0..len)]. The view aliases
    the ctx scratch arena and is valid only until the ctx's next
    encode — callers copy it out (e.g. into a batch envelope) before
    rendering the next frame. Saves the per-frame string of {!render}
    on batch paths. @raise Unencodable like {!render}. *)

val read : ?ctx:ctx -> string -> (Snet.Record.t, string) result
(** Parse exactly one frame (trailing bytes are an error). Bad magic,
    unsupported version, length mismatch, CRC mismatch, truncation,
    unknown codec names and codec decode failures all come back as
    [Error] with a description — never an exception. *)

val read_sub : ctx -> string -> pos:int -> len:int -> (Snet.Record.t, string) result
(** {!read} on the frame occupying [s[pos..pos+len)], without slicing
    the enclosing message: field payloads decode straight out of [s]
    (used by {!Proto} batch envelopes, which pack many frames into one
    message). *)

val validate : string -> (unit, string) result
(** [read] then re-[render] and require byte equality. *)

val crc32 : string -> int32
(** The checksum used by frames (IEEE 802.3 polynomial), exposed for
    tests. *)
