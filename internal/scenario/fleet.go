package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"

	"github.com/clasp-measurement/clasp/internal/core"
)

// LoadDir loads every *.json scenario spec in dir. Specs are returned in
// name order and must have unique names (they address golden files and
// fleet output sections).
func LoadDir(dir string) ([]*Spec, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no *.json specs in %s", dir)
	}
	sort.Strings(paths)
	specs := make([]*Spec, 0, len(paths))
	seen := make(map[string]string)
	var errs []error
	for _, path := range paths {
		s, err := LoadFile(path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if prev, dup := seen[s.Name]; dup {
			errs = append(errs, fmt.Errorf("%s: duplicate scenario name %q (also in %s)", path, s.Name, prev))
			continue
		}
		seen[s.Name] = path
		specs = append(specs, s)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	sortSpecs(specs)
	return specs, nil
}

func sortSpecs(specs []*Spec) {
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
}

// Fleet runs the scenarios concurrently, one goroutine per scenario over
// the Runner's shared substrate cache, buffering each scenario's report
// and emitting them in name order. The output — including any partial
// output of a failed scenario — is byte-identical to running the same specs
// serially in name order, each under its "scenario <name>" banner (pinned by
// TestFleetMatchesSerial): substrates are immutable and concurrent-safe,
// and all mutable engine state is per-scenario.
func (r *Runner) Fleet(w io.Writer, specs []*Spec) error {
	ordered := append([]*Spec(nil), specs...)
	sortSpecs(ordered)
	bufs := make([]bytes.Buffer, len(ordered))
	errs := make([]error, len(ordered))
	var wg sync.WaitGroup
	for i, s := range ordered {
		wg.Add(1)
		go func(i int, s *Spec) {
			defer wg.Done()
			errs[i] = r.Run(&bufs[i], s)
		}(i, s)
	}
	wg.Wait()
	for i, s := range ordered {
		core.Separator(w, "scenario "+s.Name)
		if _, err := io.Copy(w, &bufs[i]); err != nil {
			return fmt.Errorf("scenario: writing %s output: %w", s.Name, err)
		}
	}
	return errors.Join(errs...)
}

// FleetDir loads a directory of specs and runs them as a fleet — the
// `clasp fleet dir/` entry point.
func (r *Runner) FleetDir(w io.Writer, dir string) error {
	specs, err := LoadDir(dir)
	if err != nil {
		return err
	}
	return r.Fleet(w, specs)
}
