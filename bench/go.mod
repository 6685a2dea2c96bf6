module ecosched/bench

go 1.22

require ecosched v0.0.0

replace ecosched => ../
