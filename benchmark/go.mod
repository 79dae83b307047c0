module raven/benchmark

go 1.24

require raven v0.0.0

replace raven => ../
