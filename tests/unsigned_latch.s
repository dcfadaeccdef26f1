; An unsigned latch against 0xffffffff: the loop runs 2^32 - 1 times.
; The loop analysis must derive no trip bound for it, so GECKO cuts the
; loop header instead of folding the loop into one 8-cycle region.
    movi r1, 0
    movi r2, -1
head:
    add  r3, r3, #5
    add  r1, r1, #1
    bltu r1, r2, head
    halt
