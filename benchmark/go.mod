module fompi/benchmark

go 1.24

require fompi v0.0.0

replace fompi => ../
