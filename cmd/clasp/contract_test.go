package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/clasp-measurement/clasp/internal/checkpoint"
	"github.com/clasp-measurement/clasp/internal/killpoint"
	"github.com/clasp-measurement/clasp/internal/obs"
)

// asCLIEnv in a child's environment makes this test binary behave as the
// clasp command. The kill cells below need a process to SIGKILL, and
// re-executing the binary that is already running needs no `go build`.
const asCLIEnv = "CLASP_TEST_AS_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(asCLIEnv) != "" {
		main() // exits 1 itself when the command fails
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// knobs are the runtime options no output byte may depend on. A budgeted run
// spills into the system temp dir, where spill files are unlinked at creation.
type knobs struct {
	parallelism int
	budgetMB    int // 0 = unbounded
}

func (k knobs) flags() []string {
	return []string{"-parallelism", strconv.Itoa(k.parallelism), "-max-memory", strconv.Itoa(k.budgetMB)}
}

// contractRow is one command of the determinism contract.
type contractRow struct {
	name string
	// command returns the arguments that run it under k.
	command func(t *testing.T, k knobs) []string
	// golden is the committed output every cell must print; a row without
	// one is held to its own parallelism-1 unbudgeted run.
	golden string
	// kills are the kill points that stop the command mid-way and leave
	// something `clasp resume` takes: a scenario has no resume command.
	kills []string
	// spills says -max-memory 1 puts the row over budget, which the test
	// checks: under it the budget column would compare a run with itself.
	spills bool
}

// Three days, not the catalog's two: at this seed and scale a two-day
// campaign sits 5 % under the 1 MB spill threshold (core.runCampaign).
var contractShape = []string{"-seed", "3", "-scale", "0.1", "-days", "3"}

var contractRows = []contractRow{{
	name: "campaign", spills: true,
	command: func(_ *testing.T, k knobs) []string {
		return slices.Concat([]string{"campaign", "us-west1"}, contractShape, k.flags())
	},
	// The hour kills stop the one campaign mid-way; campaign-done:1 lands as
	// it completes, so the resume loads it and re-measures nothing.
	kills: []string{"mid-round:7", "block-flush:7", "round-boundary:7", "campaign-done:1"},
}, {
	name: "report-all", spills: true,
	command: func(_ *testing.T, k knobs) []string {
		return slices.Concat([]string{"report", "all"}, contractShape, k.flags())
	},
	kills: []string{"campaign-done:2"},
}, {
	// The bill of six concurrent seven-day campaigns: its egress is metered
	// in integer bytes, so it is exact in any order they commit in.
	name: "costs", spills: true,
	command: func(_ *testing.T, k knobs) []string {
		return slices.Concat([]string{"costs", "-seed", "3", "-scale", "0.1"}, k.flags())
	},
	kills: []string{"campaign-done:2"},
}, {
	// Fig. 5's one differential campaign, over both tiers. It stays under
	// the 1 MB spill threshold at this shape, so its budget cells hold only
	// that the knob moves no byte; the kill lands as that campaign completes,
	// before anything is rendered.
	name: "report-fig5",
	command: func(_ *testing.T, k knobs) []string {
		return slices.Concat([]string{"report", "fig5"}, contractShape, k.flags())
	},
	kills: []string{"campaign-done:1"},
}, {
	// The catalog's two days stay under the spill threshold, so this row's
	// budget cells hold only that the knob alone moves no byte of the golden;
	// scenario.TestBudgetedScenarioByteIdentical crosses it on a longer variant.
	name:    "small-smoke",
	golden:  "../../examples/scenarios/small-smoke.golden",
	command: smallSmokeUnder,
}}

// smallSmokeUnder writes a copy of the small-smoke spec with the knobs set —
// a scenario takes them from its spec — and returns the command that runs it.
func smallSmokeUnder(t *testing.T, k knobs) []string {
	raw, err := os.ReadFile("../../examples/scenarios/small-smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]any
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	spec["parallelism"], spec["maxMemoryMB"] = k.parallelism, k.budgetMB
	if raw, err = json.Marshal(spec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "small-smoke.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return []string{"run", path}
}

// TestDeterminismContract is the one statement of the invariant everything
// else in the repository is negotiable against: a command prints the same
// bytes at any parallelism, under any memory budget, and killed at any point
// and resumed. Rows are commands; columns are parallelism 1/4/16 × budget
// none/1 MB × {uninterrupted, each kill point of the row}. Uninterrupted
// cells call run in-process. A kill cell re-executes this binary as the CLI
// with CLASP_KILL_POINT armed, so the child dies by a real SIGKILL — no
// deferred cleanup or flush can paper over a durability bug — and is held to
// four checks: it died by SIGKILL, what it left on disk is mid-way and
// exactly where the kill point says, `clasp resume` under the same knobs
// skips exactly the campaigns that had finished, and prints the row's bytes.
func TestDeterminismContract(t *testing.T) {
	for _, row := range contractRows {
		var want []byte
		if row.golden != "" {
			var err error
			if want, err = os.ReadFile(row.golden); err != nil {
				t.Fatal(err)
			}
		} else {
			var ref bytes.Buffer
			if err := run(row.command(t, knobs{parallelism: 1}), &ref); err != nil {
				t.Fatalf("%s reference run: %v", row.name, err)
			}
			want = ref.Bytes()
		}
		if row.spills {
			spilled := obs.Default().Counter("analysis_log_spilled_bytes_total")
			obs.SetEnabled(true)
			before := spilled.Value()
			err := run(row.command(t, knobs{1, 1}), io.Discard)
			moved := spilled.Value() - before
			obs.SetEnabled(false)
			if err != nil || moved == 0 {
				t.Errorf("%s under a 1 MB budget: %v, %d bytes spilled; want a run that spills, or its budget cells spill nothing", row.name, err, moved)
			}
		}
		for _, budget := range []int{0, 1} {
			for _, par := range []int{1, 4, 16} {
				k := knobs{par, budget}
				cell := fmt.Sprintf("%s/P%d/budget%dMB/", row.name, par, budget)
				t.Run(cell+"uninterrupted", func(t *testing.T) {
					var got bytes.Buffer
					if err := run(row.command(t, k), &got); err != nil {
						t.Fatal(err)
					}
					requireSameBytes(t, got.Bytes(), want)
				})
				for _, kill := range row.kills {
					if testing.Short() {
						break // process-spawning cells, like the other CLI integration tests
					}
					t.Run(cell+kill, func(t *testing.T) { killAndResume(t, row, k, kill, want) })
				}
			}
		}
	}
}

// killAndResume runs one kill cell.
func killAndResume(t *testing.T, row contractRow, k knobs, kill string, want []byte) {
	ck := filepath.Join(t.TempDir(), "ck")
	_, stderr, err := cli(kill, append(row.command(t, k), "-checkpoint-dir", ck)...)
	var exit *exec.ExitError // a clean exit, or any death but an uncaught SIGKILL, is no kill
	if !errors.As(err, &exit) || exit.String() != "signal: killed" {
		t.Fatalf("child armed with %s: %v, want death by SIGKILL\n%s", kill, err, stderr)
	}
	finished := finishedOnDisk(t, ck, kill)

	got, stderr, err := cli("", slices.Concat([]string{"resume", ck}, k.flags())...)
	if err != nil {
		t.Fatalf("resume: %v\n%s", err, stderr)
	}
	if skips := bytes.Count(stderr, []byte("skipping finished campaign")); skips != finished {
		t.Errorf("resume skipped %d campaigns, want the %d finished ones\n%s", skips, finished, stderr)
	}
	requireSameBytes(t, got, want)
}

// finishedOnDisk checks that a kill left its checkpoint set mid-way — one it
// never reached, or one already complete, would resume "correctly" too — and
// where the kill point says, and returns how many campaigns of the set are
// at their final watermark: the ones a resume must skip.
func finishedOnDisk(t *testing.T, ck, kill string) int {
	point, arg, _ := strings.Cut(kill, ":")
	n, err := strconv.Atoi(arg)
	if err != nil {
		t.Fatal(err)
	}
	man, err := checkpoint.LoadManifest(ck)
	if err != nil {
		t.Fatal(err)
	}
	if point != "campaign-done" { // the manifest's one campaign, killed at hour n
		if len(man.Campaigns) != 1 {
			t.Fatalf("killed at %s: the manifest lists %d campaigns, want one", kill, len(man.Campaigns))
		}
		c, err := checkpoint.LoadCampaign(ck, man.Campaigns[0])
		if err != nil || c == nil {
			t.Fatalf("killed at %s: the campaign left %v, %v; want a checkpoint", kill, c, err)
		}
		if point == "round-boundary" {
			n++ // dies after hour n's checkpoint committed, the other two before
		}
		if next := c.Meta.Progress.NextHour; next != n || next >= c.Meta.Campaign.Days*24 {
			t.Fatalf("killed at %s: checkpoint watermark is hour %d, want %d", kill, next, n)
		}
		return 0
	}
	finished := 0
	for _, camp := range man.Campaigns {
		c, err := checkpoint.LoadCampaign(ck, camp) // nil: never started
		if err != nil {
			t.Fatal(err)
		}
		if c != nil && c.Meta.Progress.NextHour >= camp.Days*24 {
			finished++
		}
	}
	// The kill fires as the nth campaign completes: all of them only when
	// it is the last.
	if finished < n || finished == len(man.Campaigns) && n < finished {
		t.Fatalf("killed at %s: %d of %d campaigns at their final watermark, want at least %d and not all", kill, finished, len(man.Campaigns), n)
	}
	return finished
}

// cli runs this binary as the clasp command with the kill point armed ("":
// disarmed — the last duplicate in Env wins, so one inherited from the
// developer's shell never arms a child).
func cli(kill string, args ...string) (stdout, stderr []byte, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asCLIEnv+"=1", killpoint.EnvVar+"="+kill)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.Bytes(), errOut.Bytes(), err
}

// requireSameBytes fails showing where got first departs from want.
func requireSameBytes(t *testing.T, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	t.Fatalf("%d bytes, want %d; they part at byte %d (line %d): %q, want %q", len(got), len(want),
		i, 1+bytes.Count(got[:i], []byte("\n")), got[i:min(i+60, len(got))], want[i:min(i+60, len(want))])
}
