(** CRC-32 (IEEE) checksums, used to detect torn or corrupted snapshot
    files.  The value is always in [0, 2^32). *)

val string : string -> int
(** Checksum of a whole string. *)

val update : int -> string -> pos:int -> len:int -> int
(** Incremental form: [update crc s ~pos ~len] extends [crc] with a
    substring.  [string s = update 0 s ~pos:0 ~len:(String.length s)], and
    [update (update crc s ~pos ~len:k) s ~pos:(pos + k) ~len:(len - k)] is
    [update crc s ~pos ~len].  Only the low 32 bits of [crc] are used.
    @raise Invalid_argument unless [0 <= pos], [0 <= len] and
    [pos + len <= String.length s]. *)

val combine : int -> int -> len:int -> int
(** [combine crc_a crc_b ~len] is the checksum of [a ^ b], given [crc_a],
    the checksum of [b] and [len = String.length b], without reading either
    string: [combine c (string b) ~len:(String.length b) = update c b ~pos:0
    ~len:(String.length b)] for any [c].  It costs O(log len) polynomial
    multiplications, a few microseconds whatever the length.  Since the
    combination is an exclusive or, [combine crc_a crc_ab ~len] is the
    checksum of [b] given those of [a] and [a ^ b].  Only the low 32 bits
    of each checksum are used.
    @raise Invalid_argument if [len < 0]. *)
