module neurdb/benchmark

go 1.24

require neurdb v0.0.0

replace neurdb => ../
