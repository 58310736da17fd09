module myriad/bench

go 1.24

require myriad v0.0.0

replace myriad => ../
