(** Rewriting a file while readers may look at it, in the file it
    retires: the checkpoint commit, the journal's segment rotation and
    the heartbeat's [.status] and [.prom] files.  Once a name has been
    written twice no write creates a file, no rename replaces one and
    nothing is truncated to zero; on ext4 a rename over a file costs
    about as much as the rest of the write. *)

val overwrite :
  ?reuse:string -> temp:string -> (Unix.file_descr -> int) -> Unix.file_descr
(** [overwrite ?reuse ~temp write] renames [reuse] to [temp] and opens
    it without [O_TRUNC], creating it when [reuse] is absent or not
    given.  [write fd] writes the new bytes from the start and returns
    their length, which the file is [ftruncate]d to.  Returns the
    descriptor, positioned after the new bytes.  On an exception [temp]
    is removed and the exception re-raised. *)

val replace : string -> (Unix.file_descr -> int) -> unit
(** [replace path write] rewrites [path] in four steps:

    + rename [path.prev] to [path.tmp.<pid>] (if it exists);
    + {!overwrite} that file with [write];
    + rename [path] to [path.prev] (if it exists);
    + rename the temp file to [path].

    A complete file exists at every instant, [path] up to step 3 and
    [path.prev] until step 4, so a reader that finds no [path] reads
    [path.prev].  A failed step removes the temp file and re-raises. *)
