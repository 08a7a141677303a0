module github.com/clasp-measurement/clasp/bench

go 1.22

require github.com/clasp-measurement/clasp v0.0.0

replace github.com/clasp-measurement/clasp => ../
