(** Two-way binary codecs for snapshot payloads.

    An ['a t] is an encoder and its decoder built together from one
    description, so the two cannot disagree on the byte layout.  A record
    is described once, one line per field, and the order of the lines is
    the format:

    {[
      let running =
        let+ s_n = field int (fun s -> s.s_n)
        and+ s_mean = field float (fun s -> s.s_mean) in
        { s_n; s_mean }
    ]}

    Unlike [Marshal], the layout is defined here and nowhere else, so
    snapshot files are stable across compiler versions and can be versioned
    and CRC-checked byte for byte (golden files live in [test/]).  Decoders
    run left to right, validate every length against the remaining input,
    range-check every tag and raise {!Error} rather than read out of
    bounds. *)

exception Error of string
(** Raised by decoders on truncated or malformed input. *)

type 'a t
(** A codec for ['a]. *)

val to_string : 'a t -> 'a -> string

val of_string : 'a t -> string -> 'a
(** @raise Error on malformed input, including trailing bytes. *)

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
