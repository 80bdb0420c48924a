(** Deterministic pseudo-random number generation.

    All stochastic behaviour in the simulator flows through this module so
    that every experiment is reproducible from a single integer seed.  The
    generator is splitmix64, which is fast, has a 64-bit state, and passes
    BigCrush; statistical quality far exceeds what a cache simulator needs. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val to_state : t -> int64
(** The generator's full internal state (splitmix64 has exactly 64 bits).
    [of_state (to_state t)] continues the stream bit-identically, which is
    what checkpoint/restore relies on. *)

val of_state : int64 -> t
(** A generator resuming from a captured state. *)

val set_state : t -> int64 -> unit
(** Overwrite [t]'s state in place. *)

val sync : Codec.io -> t -> unit
(** The state, for checkpoints: written, or read into [t] in place. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t].  Streams of
    the parent and child are statistically independent; used to give each
    workload component its own stream so adding components does not perturb
    the others. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  [bound] must be positive. *)

val fill_int : t -> int -> base:int -> int array -> pos:int -> n:int -> unit
(** [fill_int t bound ~base buf ~pos ~n] stores [base + int t bound] for
    [n] successive draws in [buf.(pos)] … [buf.(pos + n - 1)], leaving [t]
    where those [n] calls would.  Faster than the calls, because the state
    stays in a register between draws; allocates nothing.
    @raise Invalid_argument if the range is outside [buf]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive.  Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of failures before the first success of a
    Bernoulli([p]) process; mean [(1-p)/p].  Requires [0 < p <= 1]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential distribution with the given
    mean. *)

val pick : t -> 'a array -> 'a
(** [pick t arr] is a uniformly chosen element.  Requires a non-empty
    array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val bits64 : t -> int64
(** Next raw 64-bit output of the generator. *)

val skip : t -> int -> unit
(** [skip t n] advances [t] past the next [n] raw draws in O(1), leaving the
    stream exactly where [n] calls to {!bits64} would have.  Each derived
    sampler above consumes exactly one raw draw, so callers can skip by
    draw count. *)
