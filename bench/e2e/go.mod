module blast/bench/e2e

go 1.22

require blast v0.0.0

replace blast => ../..
