(* Regenerates the committed corpus of invalid checkpoint files
   (test/corpus/): one store directory whose every manifest is broken in
   a different deterministic way, exercising each rejection class of
   Chkpt.Durable. E19's corpus block (and `repro check recover` in
   `dune runtest`) run Durable.recover over it and golden-diff the
   rejections.

     dune exec tools/gen_corpus.exe -- test/corpus

   Every byte is a pure function of the scenario list below, so the
   committed tree is reproducible. The corruption is byte surgery on
   initially-valid saves; fields damaged before the checksum trailer is
   verified (magic, schema, graph) do not need the trailer recomputed,
   because decoding rejects them first. *)

let corpus_tag = "flowtab"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let surgery path f =
  let b = Bytes.of_string (read_file path) in
  f b;
  write_file path (Bytes.to_string b)

(* Manifest layout: magic @0 (8 bytes), schema u32 @8, graph u32 @12,
   kind u8 @16, generation u32 @17, parent u32 @21, tag length u32 @25,
   tag content @29. *)
let set_u32 b off v = Bytes.set_int32_be b off (Int32.of_int v)

let truncate_to path n =
  let s = read_file path in
  write_file path (String.sub s 0 (min n (String.length s)))

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let () =
  let dir =
    match Sys.argv with
    | [| _; d |] -> d
    | _ ->
      prerr_endline "usage: gen_corpus DIR";
      exit 2
  in
  if Sys.file_exists dir then rm_rf dir;
  let d = Chkpt.Durable.open_store ~graph:Experiments.Recover.corpus_graph ~dir () in
  (* Scenario-unique chunk payloads, so each manifest owns its pool
     files and the pool-level corruptions stay independent. *)
  let chunk i side = Printf.sprintf "corpus-%02d-%s" i side in
  for i = 1 to 11 do
    ignore (Chkpt.Durable.save d ~tag:corpus_tag ~chunks:[| chunk i "a"; chunk i "b" |])
  done;
  let file g = Filename.concat dir (Printf.sprintf "ckpt-%08d.bsck" g) in
  let pool payload =
    Filename.concat
      (Filename.concat dir "chunks")
      (Chkpt.Wire.hex_of_hash (Chkpt.Wire.fnv64 payload) ^ ".chunk")
  in
  (* 1: not a checkpoint file at all. *)
  surgery (file 1) (fun b -> Bytes.set b 0 'X');
  (* 2: stale schema version. *)
  surgery (file 2) (fun b -> set_u32 b 8 0);
  (* 3: future schema version. *)
  surgery (file 3) (fun b -> set_u32 b 8 9);
  (* 4: written by a different structure layout. *)
  surgery (file 4) (fun b -> set_u32 b 12 (Experiments.Recover.corpus_graph + 1));
  (* 5: truncated inside the fixed header. *)
  truncate_to (file 5) 10;
  (* 6: truncated inside the final chunk record (each record is 20
     bytes, the trailer 8; 18 bytes short of the end is mid-record). *)
  truncate_to (file 6) (String.length (read_file (file 6)) - 18);
  (* 7: truncated inside the checksum trailer. *)
  truncate_to (file 7) (String.length (read_file (file 7)) - 4);
  (* 8: single bit flip in the tag content — structurally valid, caught
     only by the whole-file checksum. *)
  surgery (file 8) (fun b ->
      Bytes.set b 30 (Char.chr (Char.code (Bytes.get b 30) lxor 0x01)));
  (* 9: manifest is intact but a pool chunk it references is gone. *)
  Sys.remove (pool (chunk 9 "a"));
  (* 10: pool chunk overwritten with same-length garbage — caught by the
     per-chunk content hash. *)
  write_file (pool (chunk 10 "a")) (String.make (String.length (chunk 10 "a")) 'X');
  (* 11: valid manifest renamed over another generation — the canonical
     checkpoint id (filename = checksummed header generation) breaks. *)
  Sys.rename (file 11) (file 12);
  Printf.printf "corpus written to %s (11 files, every rejection class)\n" dir
