type t = Ace_ckpt.Snapshot.scheme = Fixed_baseline | Hotspot | Bbv

let name = function
  | Fixed_baseline -> "baseline"
  | Hotspot -> "hotspot"
  | Bbv -> "bbv"

let of_string = function
  | "baseline" | "fixed" -> Some Fixed_baseline
  | "hotspot" | "do" -> Some Hotspot
  | "bbv" -> Some Bbv
  | _ -> None

let all = [ Fixed_baseline; Hotspot; Bbv ]
