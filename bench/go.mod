module sage/bench

go 1.22

require sage v0.0.0

replace sage => ../
