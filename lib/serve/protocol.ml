module Codec = Ace_util.Codec
module Scheme = Ace_harness.Scheme
module Run = Ace_harness.Run

exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

type job_spec = {
  workload : string;
  scheme : Scheme.t;
  scale : float;
  seed : int;
  fault_rate : float option;
  resilient : bool;
  sample : bool;
  deadline_s : float option;
  fail_after : int option;
}

let job_spec ?fault_rate ?(resilient = false) ?(sample = false) ?deadline_s
    ?fail_after ?(scale = 1.0) ?(seed = 1) ~workload scheme =
  {
    workload;
    scheme;
    scale;
    seed;
    fault_rate;
    resilient;
    sample;
    deadline_s;
    fail_after;
  }

let run_meta ~checkpoint_every s =
  Run.meta ~scale:s.scale ~seed:s.seed ~resilient:s.resilient
    ?fault_rate:s.fault_rate
    ?sample:(Ace_sample.Sample.of_flag s.sample)
    ~checkpoint_every s.workload s.scheme

type job_info = { id : int; state : string }

type status_report = {
  queue_depth : int;
  running : int;
  draining : bool;
  degraded : bool;
  counters : (string * int) list;
  jobs : job_info list;
}

type request = Submit of job_spec | Status | Result of int | Stop

type response =
  | Accepted of int
  | Overloaded
  | Status_ok of status_report
  | Result_ok of { id : int; state : string; output : string option }
  | Stopping
  | Error_resp of string

(* -- codecs ---------------------------------------------------------

   One description per wire type is its encoder and its decoder.  The
   encoders write any value; the spec decoder refuses a spec no run could
   be built from, and since the spool stores specs with the same codec,
   the wire and the spool share that one validator. *)

let checked s =
  if not (Float.is_finite s.scale && s.scale > 0.0) then
    fail "scale %g out of range" s.scale;
  (match s.fault_rate with
  | Some r when not (r >= 0.0 && r <= 1.0) -> fail "fault_rate %g out of range" r
  | _ -> ());
  if s.sample && s.fault_rate <> None && not s.resilient then
    fail "sample with fault_rate requires resilient";
  (match s.deadline_s with
  | Some d when not (d > 0.0) -> fail "deadline_s %g out of range" d
  | _ -> ());
  (match s.fail_after with
  | Some n when n <= 0 -> fail "fail_after %d out of range" n
  | _ -> ());
  s

let spec =
  let open Codec in
  let+ workload = field string (fun s -> s.workload)
  and+ scheme = field Ace_ckpt.Snapshot.scheme_codec (fun s -> s.scheme)
  and+ scale = field float (fun s -> s.scale)
  and+ seed = field int (fun s -> s.seed)
  and+ fault_rate = field (option float) (fun s -> s.fault_rate)
  and+ resilient = field bool (fun s -> s.resilient)
  and+ sample = field bool (fun s -> s.sample)
  and+ deadline_s = field (option float) (fun s -> s.deadline_s)
  and+ fail_after = field (option int) (fun s -> s.fail_after) in
  checked
    { workload; scheme; scale; seed; fault_rate; resilient; sample;
      deadline_s; fail_after }

let report =
  let open Codec in
  let job_info =
    let+ id = field int (fun j -> j.id)
    and+ state = field string (fun j -> j.state) in
    { id; state }
  in
  let+ queue_depth = field int (fun r -> r.queue_depth)
  and+ running = field int (fun r -> r.running)
  and+ draining = field bool (fun r -> r.draining)
  and+ degraded = field bool (fun r -> r.degraded)
  and+ counters = field (list (pair string int)) (fun r -> r.counters)
  and+ jobs = field (list job_info) (fun r -> r.jobs) in
  { queue_depth; running; draining; degraded; counters; jobs }

let request =
  let open Codec in
  let submit = case 0 spec (fun s -> Submit s)
  and status = case 1 unit (fun () -> Status)
  and result = case 2 int (fun id -> Result id)
  and stop = case 3 unit (fun () -> Stop) in
  variant "request" [ Case submit; Case status; Case result; Case stop ]
    (fun w -> function
    | Submit s -> write w submit s
    | Status -> write w status ()
    | Result id -> write w result id
    | Stop -> write w stop ())

let response =
  let open Codec in
  let accepted = case 0 int (fun id -> Accepted id)
  and overloaded = case 1 unit (fun () -> Overloaded)
  and status_ok = case 2 report (fun r -> Status_ok r)
  and result_ok =
    case 3
      (triple int string (option string))
      (fun (id, state, output) -> Result_ok { id; state; output })
  and stopping = case 4 unit (fun () -> Stopping)
  and error = case 5 string (fun msg -> Error_resp msg) in
  variant "response"
    [ Case accepted; Case overloaded; Case status_ok; Case result_ok;
      Case stopping; Case error ]
    (fun w -> function
    | Accepted id -> write w accepted id
    | Overloaded -> write w overloaded ()
    | Status_ok r -> write w status_ok r
    | Result_ok { id; state; output } -> write w result_ok (id, state, output)
    | Stopping -> write w stopping ()
    | Error_resp msg -> write w error msg)

(* Values are small: a buffer that starts in the minor heap, where
   [Codec.to_string]'s 4 KiB one would not, keeps an encode off the major
   heap. *)
let encode c v =
  let b = Buffer.create 256 in
  Codec.append c b v;
  Buffer.contents b

let decode what c s =
  try Codec.of_string c s
  with Codec.Error msg -> fail "malformed %s: %s" what msg

let encode_spec = encode spec
let decode_spec = decode "spec" spec
let encode_request = encode request
let decode_request = decode "request" request
let encode_response = encode response
let decode_response = decode "response" response

(* -- framing -------------------------------------------------------- *)

let max_frame = 1 lsl 20

let rec write_all fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    write_all fd buf (off + n) (len - n)
  end

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then fail "frame of %d bytes exceeds max %d" len max_frame;
  let buf = Bytes.create (4 + len) in
  Bytes.set_int32_le buf 0 (Int32.of_int len);
  Bytes.blit_string payload 0 buf 4 len;
  write_all fd buf 0 (4 + len)

let read_exact fd n =
  let buf = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    let k = Unix.read fd buf !off (n - !off) in
    if k = 0 then fail "connection closed mid-frame (%d of %d bytes)" !off n;
    off := !off + k
  done;
  Bytes.unsafe_to_string buf

let read_frame fd =
  let header = read_exact fd 4 in
  let len = Int32.to_int (String.get_int32_le header 0) in
  if len < 0 || len > max_frame then
    fail "declared frame length %d exceeds max %d" len max_frame;
  read_exact fd len
