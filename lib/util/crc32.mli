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
