module flashps/benchmark

go 1.22

require flashps v0.0.0

replace flashps => ../
