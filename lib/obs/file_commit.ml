(* The checkpoint's protocol (doc/SERVICE.md, "The checkpoint commit"),
   for every file the service rewrites while it runs.  No rename here
   replaces a file and no open truncates one: on ext4 either starts
   writing back the old file's delayed data inside the call
   (doc/PERFORMANCE.md, "What a checkpoint costs"). *)

let rename_if_present src dst =
  try Unix.rename src dst with Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let remove_noerr path = try Sys.remove path with Sys_error _ -> ()

let overwrite ?reuse ~temp write =
  try
    Option.iter (fun reuse -> rename_if_present reuse temp) reuse;
    let fd = Unix.openfile temp [ O_WRONLY; O_CREAT; O_CLOEXEC ] 0o666 in
    (try Unix.ftruncate fd (write fd)
     with e ->
       Unix.close fd;
       raise e);
    fd
  with e ->
    remove_noerr temp;
    raise e

let replace path write =
  let prev = path ^ ".prev" in
  let temp = path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
  let fd = overwrite ~reuse:prev ~temp write in
  try
    Unix.close fd;
    rename_if_present path prev;
    Unix.rename temp path
  with e ->
    remove_noerr temp;
    raise e
