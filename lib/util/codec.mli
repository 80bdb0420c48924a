(** Binary codecs for snapshots.

    Checkpointed state is written straight from the live objects and read
    straight back into freshly built ones.  Each stateful module has one
    function over an {!io} (its [sync]) that names every checkpointed field
    once, in format order:

    {[
      let sync io t =
        t.n_hits <- Codec.sync io Codec.int t.n_hits;
        Codec.sync_array io Codec.int t.tags
    ]}

    With a write buffer, [sync] writes the field and hands it back, so the
    assignment changes nothing; with a read cursor it returns the decoded
    value.  Plain-data types are described by a two-way value codec, an
    ['a t], built once from one description so the encoder and decoder
    cannot disagree on the byte layout:

    {[
      let running =
        let+ s_n = field int (fun s -> s.s_n)
        and+ s_mean = field float (fun s -> s.s_mean) in
        { s_n; s_mean }
    ]}

    Unlike [Marshal], the layout is defined here and nowhere else, so
    snapshot files are stable across compiler versions and can be versioned
    and CRC-checked byte for byte (golden files live in [test/]).  Reading
    runs left to right, validates every length against the remaining input,
    range-checks every tag, checks every array that a live object owns
    against that object, and raises {!Error} rather than read out of bounds
    or build a state the live object cannot hold. *)

exception Error of string
(** Raised by decoders on truncated or malformed input. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Error} with a formatted message: a shape check in a reader. *)

type 'a t
(** A codec for ['a]. *)

val to_string : 'a t -> 'a -> string

val append : 'a t -> Buffer.t -> 'a -> unit
(** [append c b v] adds the bytes [to_string c v] returns to the end of
    [b], without building the string. *)

val of_string : 'a t -> string -> 'a
(** @raise Error on malformed input, including trailing bytes. *)

val prefix : 'a t -> string -> pos:int -> 'a * int
(** The value encoded at [pos] and the position just past it.
    @raise Error on malformed input. *)

(** {2 Primitives}

    [int], [int64] and [float] are 8 bytes little-endian (a float as its
    IEEE 754 bit pattern) and box nothing on either side; [bool] is one
    byte, 0 or 1; [unit] is no bytes; [string] is its length as an [int],
    then its bytes. *)

val int : int t
val int64 : int64 t
val float : float t
val bool : bool t
val unit : unit t
val string : string t

(** {2 Combinators} *)

val option : 'a t -> 'a option t
(** Tag byte 0 ([None]) or 1 followed by the value. *)

val array : 'a t -> 'a array t
(** Length as an [int], then the elements in order. *)

val list : 'a t -> 'a list t
(** Same layout as {!array}. *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val conv : ('b -> 'a) -> ('a -> 'b) -> 'a t -> 'b t
(** [conv proj inj c] writes a ['b] as [c] writes [proj b]. *)

val enum : string -> 'a list -> 'a t
(** Constant constructors only: a tag byte, the value's index in the list.
    [string] names the type in decode errors. *)

(** {2 Records} *)

type ('r, 'a) field
(** One field of a record ['r], holding an ['a]. *)

val field : 'a t -> ('r -> 'a) -> ('r, 'a) field
(** [field c get]: the field [get r] of a record [r], written with [c]. *)

val ( let+ ) : ('r, 'a) field -> ('a -> 'r) -> 'r t
val ( and+ ) : ('r, 'a) field -> ('r, 'b) field -> ('r, 'a * 'b) field

(** {2 Tagged variants}

    Each constructor is one {!case} with an explicit tag.  The encoder is
    one exhaustive match that {!write}s every constructor with its case, so
    the compiler flags a constructor left out, and encoding allocates
    nothing beyond the payload.

    {[
      let key =
        let meth = case 0 int (fun m -> K_meth m)
        and cluster = case 1 int (fun c -> K_cluster c) in
        variant "key" [ Case meth; Case cluster ] (fun w -> function
          | K_meth m -> write w meth m
          | K_cluster c -> write w cluster c)
    ]} *)

type ('a, 'b) case
(** A constructor of ['a] carrying a ['b]. *)

val case : int -> 'b t -> ('b -> 'a) -> ('a, 'b) case
(** [case tag payload inj]: written as the tag byte, then the payload;
    decoded by [inj]. *)

type 'a any_case = Case : ('a, 'b) case -> 'a any_case

type 'a writer
(** Where the encoder of an ['a] variant writes. *)

val write : 'a writer -> ('a, 'b) case -> 'b -> unit

val variant : string -> 'a any_case list -> ('a writer -> 'a -> unit) -> 'a t
(** [variant name cases select]: [select] encodes, [cases] decode.  Tags
    must be distinct and in [0, 255]; [name] names the type in decode
    errors.
    @raise Invalid_argument on a bad or repeated tag. *)

(** {2 Live objects} *)

type io
(** A write buffer or a read cursor. *)

val save : (io -> unit) -> string
(** [save f] runs [f] over a fresh write buffer and returns its bytes. *)

val save_crc : (io -> unit) -> string * int
(** [save f] and its {!Crc32} checksum.  Only the bytes [f]
    encoded itself are hashed; each {!write_encoded} run is combined in
    from the CRC it came with. *)

val load : string -> (io -> unit) -> unit
(** [load s f] runs [f] over a read cursor on [s].
    @raise Error on malformed input, including bytes [f] left unread. *)

val reading : io -> bool

val room : io -> int
(** Bytes left to read; [max_int] when writing.  A reader that must
    allocate from a decoded size checks it against this first. *)

val sync : io -> 'a t -> 'a -> 'a
(** [sync io c v] writes [v] and returns it, or returns the value read. *)

val sync_length : io -> int -> int
(** A length prefix: written as an [int]; read back checked to be
    non-negative and no larger than the remaining input. *)

val write_encoded : io -> Bytes.t -> pos:int -> len:int -> crc:int -> unit
(** [write_encoded io src ~pos ~len ~crc] writes [len] bytes of [src] from
    [pos] as they are: values encoded earlier with {!append}, kept by a
    writer that would otherwise encode them again.  A reader decodes them
    with their codec.  [crc] must be the CRC-32 of those bytes, as
    [Crc32.update 0] computes it: {!save_crc} combines it in and never
    reads the bytes.  A wrong [crc] makes a wrong checksum, which the
    container's check refuses when the file is read back.
    @raise Invalid_argument on a read cursor or a range outside [src]. *)

val sync_array : io -> 'a t -> 'a array -> unit
(** The elements of an array the live object owns, in the layout of
    {!array}; read in place after checking the stored length against it. *)

val sync_each : io -> (io -> 'a -> unit) -> 'a array -> unit
(** Like {!sync_array} for an array of live objects, each synced by the
    function. *)

val sync_option : io -> (io -> 'a -> unit) -> 'a option -> unit
(** A live optional object, in the layout of {!option}; reading refuses a
    stored value whose presence differs from the live one. *)

val sync_hashtbl : io -> ('k * 'v) t -> ('k, 'v) Hashtbl.t -> unit
(** A table as its bindings in increasing key order, in the layout of
    {!list}; reading replaces the table's contents. *)
