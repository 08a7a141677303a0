// Package killpoint is the crash-test hook behind the kill cells of
// cmd/clasp's TestDeterminismContract: it SIGKILLs the current process at a
// named, deterministic point of a campaign so the checkpoint/resume machinery
// can be proven against real uncooperative deaths (no deferred cleanup, no
// flushes).
//
// The hook is armed through the environment: CLASP_KILL_POINT="<point>:<hour>"
// kills the process the first time Maybe(point, hour) is reached. With the
// variable unset — every production run — Maybe is a single nil check on a
// package variable, so the hook costs nothing and cannot fire.
//
// The points the orchestrator and checkpoint writer expose:
//
//	mid-round       a round has executed but its records are not yet
//	                emitted or checkpointed — the work since the last
//	                checkpoint must be re-executed on resume
//	block-flush     the blocks sealed since the last checkpoint are
//	                appended to its sidecar and synced, but the metadata
//	                is not yet renamed over the last — the previous
//	                checkpoint must stay loadable, and resume must
//	                truncate the appended bytes
//	round-boundary  a checkpoint just committed — resume must continue
//	                from exactly this round
//	campaign-done   the Nth campaign of a multi-campaign command (report
//	                all, costs) just completed — here the "hour" is the
//	                1-based completion count, and resume must skip the
//	                finished campaigns instead of re-measuring them
package killpoint

import (
	"os"
	"strconv"
	"strings"
)

// EnvVar arms the kill hook: "<point>:<hour>".
const EnvVar = "CLASP_KILL_POINT"

type armed struct {
	point string
	hour  int
}

var target = parse(os.Getenv(EnvVar))

// parse reads "<point>:<hour>". Anything else — empty, no colon, no point,
// an hour that is not a number — arms nothing.
func parse(v string) *armed {
	point, hourStr, ok := strings.Cut(v, ":")
	hour, err := strconv.Atoi(hourStr)
	if !ok || point == "" || err != nil {
		return nil
	}
	return &armed{point: point, hour: hour}
}

// Maybe SIGKILLs the process if the (point, hour) pair matches the armed
// kill point. SIGKILL cannot be caught, so nothing after this call — no
// defers, no sink flushes, no checkpoint writes — runs when it fires,
// exactly like a crash or an OOM kill.
func Maybe(point string, hour int) {
	if target == nil || target.point != point || target.hour != hour {
		return
	}
	p, err := os.FindProcess(os.Getpid())
	if err == nil {
		_ = p.Kill()
	}
	// Kill delivery is asynchronous in principle; never let execution
	// continue past an armed kill point.
	select {}
}
