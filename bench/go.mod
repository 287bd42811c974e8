module skipqueue/bench

go 1.22

require skipqueue v0.0.0

replace skipqueue => ../
