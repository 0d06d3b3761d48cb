module acache/benchmark

go 1.22

require acache v0.0.0

replace acache => ../
