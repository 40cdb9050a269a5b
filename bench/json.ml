(* Minimal JSON emitter for the benchmark trajectory file.

   Schema (one object per benchmark; mpps and words_per_pkt only on
   throughput rows):
     { "name": string, "ns_per_run": float, "mpps": float, "words_per_pkt": float }

   The file is rewritten wholesale on every run — it is a snapshot of
   the current tree's wall-clock numbers, not an append-only log; the
   trajectory lives in version control. Timings are each race's fastest
   round (see [emit_json] in main.ml). *)

type entry = {
  name : string;
  ns_per_run : float;
  mpps : float option;
  words_per_pkt : float option;
}

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* JSON has no NaN/Infinity; clamp to null-free, parseable output. *)
let float_str f =
  if Float.is_nan f then "0.0"
  else if f = Float.infinity then "1e308"
  else if f = Float.neg_infinity then "-1e308"
  else Printf.sprintf "%.3f" f

let optional ~sep key = function
  | None -> ""
  | Some v -> Printf.sprintf ",%s\"%s\":%s%s" sep key sep (float_str v)

let entry_to_string e =
  Printf.sprintf "  { \"name\": \"%s\", \"ns_per_run\": %s%s%s }" (escape e.name)
    (float_str e.ns_per_run)
    (optional ~sep:" " "mpps" e.mpps)
    (optional ~sep:" " "words_per_pkt" e.words_per_pkt)

let to_string entries =
  "[\n" ^ String.concat ",\n" (List.map entry_to_string entries) ^ "\n]\n"

let write ~path entries =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string entries))

(* The append-only trajectory: one JSON object per line, so the perf
   history across commits survives the wholesale rewrite of the
   snapshot file above. [date] is an ISO "YYYY-MM-DD" string supplied
   by the caller (this module stays clock-free). *)
let append_history ~path ~date entries =
  let compact e =
    Printf.sprintf "{\"name\":\"%s\",\"ns_per_run\":%s%s%s}" (escape e.name)
      (float_str e.ns_per_run)
      (optional ~sep:"" "mpps" e.mpps)
      (optional ~sep:"" "words_per_pkt" e.words_per_pkt)
  in
  let line =
    Printf.sprintf "{\"date\":\"%s\",\"entries\":[%s]}\n" (escape date)
      (String.concat "," (List.map compact entries))
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc line)
