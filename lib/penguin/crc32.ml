(* Table-driven CRC-32 (the IEEE 802.3 / zlib polynomial, reflected
   form 0xEDB88320), computed over bytes with the conventional
   pre/post-inversion. Matches zlib's crc32(). The table and the running
   value are unboxed [int]s holding 32 bits; only the result is boxed. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
        else c := !c lsr 1
      done;
      !c)

let update crc s =
  let crc = ref ((Int32.to_int crc land 0xFFFFFFFF) lxor 0xFFFFFFFF) in
  for i = 0 to String.length s - 1 do
    crc :=
      Array.unsafe_get table ((!crc lxor Char.code (String.unsafe_get s i)) land 0xFF)
      lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let digest s = update 0l s
