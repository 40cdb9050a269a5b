type predicate = Absent of string | Present of string

type spec = {
  stats : shards:int -> string;
  shards : int list;
  predicates : predicate list;
}

let identity =
  [
    Absent "identical=false"; Absent "identical .*=false"; Absent "cold-equal *no";
    Absent "\\[MISS\\]";
  ]

let capture f =
  let path = Filename.temp_file "repro-check" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  In_channel.with_open_bin path In_channel.input_all

(* The first 1-based line at which [b] departs from [a]. *)
let first_diff a b =
  let rec go n = function
    | [], [] -> None
    | x :: xs, y :: ys when String.equal x y -> go (n + 1) (xs, ys)
    | x :: _, [] -> Some (n, x, "<end of output>")
    | [], y :: _ -> Some (n, "<end of output>", y)
    | x :: _, y :: _ -> Some (n, x, y)
  in
  go 1 (String.split_on_char '\n' a, String.split_on_char '\n' b)

let matching re block =
  let re = Str.regexp re in
  let rec go n = function
    | [] -> None
    | line :: rest -> (
      match Str.search_forward re line 0 with
      | _ -> Some (n, line)
      | exception Not_found -> go (n + 1) rest)
  in
  go 1 (String.split_on_char '\n' block)

let violation block = function
  | Absent re ->
    Option.map
      (fun (n, line) -> Printf.sprintf "line %d matches forbidden /%s/: %s" n re line)
      (matching re block)
  | Present re -> (
    match matching re block with
    | Some _ -> None
    | None -> Some (Printf.sprintf "no line matches required /%s/" re))

(* Every rendering starts from a clean global registry, exactly as a
   fresh process would. *)
let render spec ~shards =
  Telemetry.Registry.reset Telemetry.Registry.global;
  spec.stats ~shards

(* The one-shard block is rendered twice, then once per other shard
   count. *)
let run spec =
  let reruns =
    ("shards=1 replay 2", 1)
    :: List.filter_map
        (fun n -> if n = 1 then None else Some (Printf.sprintf "shards=%d" n, n))
        spec.shards
  in
  let rec compare reference = function
    | [] -> Ok reference
    | (label, shards) :: rest -> (
      match first_diff reference (render spec ~shards) with
      | None -> compare reference rest
      | Some (n, a, b) ->
        Error
          (Printf.sprintf "%s differs from shards=1 replay 1 at line %d:\n  - %s\n  + %s" label
             n a b))
  in
  match compare (render spec ~shards:1) reruns with
  | exception Failure msg -> Error msg
  | Error _ as e -> e
  | Ok block -> (
    match List.find_map (violation block) spec.predicates with
    | None -> Ok block
    | Some msg -> Error msg)
