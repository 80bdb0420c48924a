(** The three resource-management schemes the paper compares.  The type is
    the snapshot meta's, so a checkpoint names its scheme without a
    conversion. *)

type t = Ace_ckpt.Snapshot.scheme =
  | Fixed_baseline
      (** Caches pinned at maximum sizes (the paper's energy baseline). *)
  | Hotspot  (** The DO-based ACE management framework (the contribution). *)
  | Bbv  (** BBV phase tracking + all-combination tuning (prior art). *)

val name : t -> string
val of_string : string -> t option
val all : t list
