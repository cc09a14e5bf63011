(* Table-driven CRC-32 (the IEEE 802.3 / zlib polynomial, reflected
   form 0xEDB88320), computed over bytes with the conventional
   pre/post-inversion. Matches zlib's crc32(). The tables and the running
   value are unboxed [int]s holding 32 bits; only the result is boxed.

   Four bytes are folded per step ("slicing by 4"): [tables.(k).(b)] is
   the CRC of byte [b] followed by [k] zero bytes, so a little-endian
   word xored into the running value is reduced by four lookups. *)

let table0 =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
        else c := !c lsr 1
      done;
      !c)

let next_table t = Array.map (fun c -> (c lsr 8) lxor table0.(c land 0xFF)) t
let table1 = next_table table0
let table2 = next_table table1
let table3 = next_table table2

let byte crc c = Array.unsafe_get table0 ((crc lxor Char.code c) land 0xFF) lxor (crc lsr 8)

let update crc s =
  let n = String.length s in
  let crc = ref ((Int32.to_int crc land 0xFFFFFFFF) lxor 0xFFFFFFFF) in
  let i = ref 0 in
  while !i + 4 <= n do
    let c = !crc lxor (Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF) in
    crc :=
      Array.unsafe_get table3 (c land 0xFF)
      lxor Array.unsafe_get table2 ((c lsr 8) land 0xFF)
      lxor Array.unsafe_get table1 ((c lsr 16) land 0xFF)
      lxor Array.unsafe_get table0 (c lsr 24);
    i := !i + 4
  done;
  while !i < n do
    crc := byte !crc (String.unsafe_get s !i);
    incr i
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let digest s = update 0l s
