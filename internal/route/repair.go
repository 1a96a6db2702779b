package route

import (
	"fmt"
	"sort"

	"sunfloor3d/internal/topology"
)

// RepairResult reports what RepairRoutes did to a faulted topology.
type RepairResult struct {
	// Stranded lists the flows whose committed route crossed a dead link,
	// in ascending flow order.
	Stranded []int
	// Rerouted is the number of stranded flows that received a new
	// deadlock-free route over the surviving links.
	Rerouted int
	// Unroutable lists the stranded flows for which no deadlock-free path
	// over the surviving links exists; their routes are left empty, so
	// Topology.Validate fails and the design point is certified dead under
	// this fault plan.
	Unroutable []int
	// DeadlockRetries counts path recomputations forced by channel
	// dependency cycles during the repair.
	DeadlockRetries int
}

// RepairRoutes re-routes the flows stranded by the failure of the given
// inter-switch links, in place on t. The fabricated chip is fixed: only links
// already implied by the committed routes — minus the dead ones — may carry
// the repaired paths, and no indirect switch can be inserted. Surviving
// routes are kept verbatim; their channel dependencies seed the CDG, so every
// repaired path is deadlock-free against the whole repaired route set (a
// surviving subset of a deadlock-free set is itself deadlock-free). The
// repair is fully deterministic: equal (topology, config, dead set) inputs
// commit byte-identical routes.
//
// A stranded flow with no valid path keeps an empty route; the caller detects
// certified-dead plans through RepairResult.Unroutable (equivalently, a
// failing Topology.Validate).
func RepairRoutes(t *topology.Topology, cfg Config, dead [][2]int) (RepairResult, error) {
	var res RepairResult
	if len(dead) == 0 {
		return res, nil
	}

	allowed, deadSet, err := repairOverlay(t, dead)
	if err != nil {
		return res, err
	}

	// Partition the flows and save the surviving paths before the router
	// resets every route.
	crossesDead := func(path []int) bool {
		for i := 1; i < len(path); i++ {
			if deadSet[path[i-1]][path[i]] {
				return true
			}
		}
		return false
	}
	stranded := make([]bool, len(t.Routes))
	surviving := make([][]int, len(t.Routes))
	for f, rt := range t.Routes {
		if len(rt.Switches) == 0 {
			return res, fmt.Errorf("route: flow %d carries no committed route to repair", f)
		}
		if crossesDead(rt.Switches) {
			stranded[f] = true
			res.Stranded = append(res.Stranded, f)
		} else {
			surviving[f] = rt.Switches
		}
	}
	if len(res.Stranded) == 0 {
		return res, nil
	}

	// Repair router: the arc universe is the surviving fabricated links only,
	// and no switch can be added to a fabbed chip.
	cfg.AllowIndirectSwitches = false
	r := &router{top: t, cfg: cfg, allowed: allowed}
	r.init()

	// Re-commit the surviving routes in the deterministic decreasing-
	// bandwidth order the original router used, rebuilding the link, port,
	// ILL and CDG bookkeeping the repaired paths must respect.
	order := t.Design.FlowsByBandwidth()
	for _, f := range order {
		if stranded[f] {
			continue
		}
		if bad := r.deadlockArc(surviving[f]); bad != nil {
			return res, fmt.Errorf("route: surviving routes are not deadlock-free (cycle at link %d->%d)", bad[0], bad[1])
		}
		r.commit(f, surviving[f])
	}

	// Route the stranded flows, heaviest first, over the surviving links.
	for _, f := range order {
		if !stranded[f] {
			continue
		}
		if r.routeFlow(f) {
			res.Rerouted++
		} else {
			res.Unroutable = append(res.Unroutable, f)
		}
	}
	sort.Ints(res.Unroutable)
	res.DeadlockRetries = r.deadlock
	return res, nil
}

// repairOverlay returns the repair router's allowed overlay — the links the
// committed routes imply (the fabricated set) minus the dead ones — and the
// dead set itself, both as switch-indexed tables. Every dead link must be a
// fabricated one.
func repairOverlay(t *topology.Topology, dead [][2]int) (allowed, deadSet [][]bool, err error) {
	n := t.NumSwitches()
	allowed = newSquare(n, false)
	for f, rt := range t.Routes {
		for i, s := range rt.Switches {
			if s < 0 || s >= n {
				return nil, nil, fmt.Errorf("route: flow %d routes through unknown switch %d", f, s)
			}
			if i > 0 {
				allowed[rt.Switches[i-1]][s] = true
			}
		}
	}
	deadSet = newSquare(n, false)
	for _, d := range dead {
		fabricated := d[0] >= 0 && d[0] < n && d[1] >= 0 && d[1] < n &&
			(allowed[d[0]][d[1]] || deadSet[d[0]][d[1]])
		if !fabricated {
			return nil, nil, fmt.Errorf("route: dead link %d->%d is not a fabricated link of the topology", d[0], d[1])
		}
		allowed[d[0]][d[1]] = false
		deadSet[d[0]][d[1]] = true
	}
	return allowed, deadSet, nil
}
