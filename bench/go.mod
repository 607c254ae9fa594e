module kvaccel/bench

go 1.22

require kvaccel v0.0.0

replace kvaccel => ../
