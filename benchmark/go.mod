module light/benchmark

go 1.22

require light v0.0.0

replace light => ../
