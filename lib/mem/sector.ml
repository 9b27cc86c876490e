let half = 0xFFFF_FFFF
let lo_of m = Int64.to_int (Int64.logand m 0xFFFF_FFFFL)
let hi_of m = Int64.to_int (Int64.shift_right_logical m 32)

let to_int64 ~lo ~hi =
  Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)

(* One 32-byte half: four 8-byte groups, one mask byte each. *)
let blit_half src sp dst dp m =
  if m = half then Bytes.blit src sp dst dp 32
  else if m <> 0 then
    for g = 0 to 3 do
      let b = (m lsr (g * 8)) land 0xFF in
      let s = sp + (g * 8) and d = dp + (g * 8) in
      if b = 0xFF then Bytes.set_int64_le dst d (Bytes.get_int64_le src s)
      else if b <> 0 then
        for i = 0 to 7 do
          if b land (1 lsl i) <> 0 then
            Bytes.set dst (d + i) (Bytes.get src (s + i))
        done
    done

let blit_masked ~src ~src_pos ~dst ~dst_pos ~lo ~hi =
  blit_half src src_pos dst dst_pos lo;
  blit_half src (src_pos + 32) dst (dst_pos + 32) hi
