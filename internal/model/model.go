// Package model defines the input data model of the SunFloor 3D flow: the
// cores of the system on chip, their sizes, positions and 3-D layer
// assignment (the core specification), and the communication flows between
// them with bandwidth and latency constraints (the communication
// specification). It corresponds to Definitions 1 and 2 of the paper.
package model

import (
	"fmt"
	"math"
	"sort"

	"sunfloor3d/internal/geom"
)

// finite reports whether v is neither NaN nor an infinity. The spec parsers
// accept anything strconv.ParseFloat does — including "NaN" and "Inf" — so
// graph validation must reject non-finite values explicitly.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// MessageType distinguishes request from response traffic. The distinction is
// used by the path-computation step to avoid message-dependent deadlocks by
// routing the two classes on disjoint turn sets.
type MessageType int

const (
	// Request messages travel from initiator cores to target cores.
	Request MessageType = iota
	// Response messages travel from target cores back to initiators.
	Response
)

// String implements fmt.Stringer.
func (m MessageType) String() string {
	switch m {
	case Request:
		return "request"
	case Response:
		return "response"
	default:
		return fmt.Sprintf("MessageType(%d)", int(m))
	}
}

// Core is a hardware block of the SoC (processor, memory, DMA, accelerator,
// peripheral). Its planar position and size within its layer are part of the
// input floorplan; the layer assignment in the 3-D stack is also an input to
// the synthesis flow (Definition 1).
type Core struct {
	// Name is the unique identifier of the core.
	Name string
	// Width and Height are the core dimensions in millimetres.
	Width, Height float64
	// X and Y are the coordinates of the lower-left corner of the core in
	// its layer, in millimetres.
	X, Y float64
	// Layer is the index of the 3-D layer the core is assigned to
	// (0 = bottom die).
	Layer int
	// IsMemory marks target (slave) cores; used by benchmark generators and
	// by the mesh mapper to distinguish initiators from targets.
	IsMemory bool
}

// Rect returns the core outline as a rectangle.
func (c Core) Rect() geom.Rect {
	return geom.Rect{X: c.X, Y: c.Y, W: c.Width, H: c.Height}
}

// Center returns the planar centre of the core.
func (c Core) Center() geom.Point { return c.Rect().Center() }

// Center3D returns the centre of the core as a 3-D point.
func (c Core) Center3D() geom.Point3D {
	p := c.Center()
	return geom.Point3D{X: p.X, Y: p.Y, Layer: c.Layer}
}

// MaxFlowBandwidthMBps is the largest flow bandwidth a CommGraph accepts:
// 1 PB/s, over four orders of magnitude above the widest link the component
// library models (512 bits at the 1 GHz switch-frequency cap is 64 GB/s).
// Such a flow can never be routed; the ceiling exists so that every sum of
// flow bandwidths, and the power and load figures built on it, stays finite
// and a Result always serialises.
const MaxFlowBandwidthMBps = 1e9

// Flow is a directed communication flow between two cores (one edge of the
// communication graph of Definition 2).
type Flow struct {
	// Src and Dst are indices into the CommGraph core slice.
	Src, Dst int
	// BandwidthMBps is the sustained bandwidth demand in MB/s.
	BandwidthMBps float64
	// LatencyCycles is the maximum allowed zero-load latency in NoC cycles
	// (hop count constraint). Zero means unconstrained.
	LatencyCycles float64
	// Type is the message class of the flow.
	Type MessageType
}

// CommGraph is the communication graph G(V, E) of Definition 2 together with
// the core descriptions of Definition 1.
type CommGraph struct {
	Cores []Core
	Flows []Flow

	nameIdx map[string]int
}

// NewCommGraph builds a communication graph from cores and flows and validates
// it. It returns an error if a core name is duplicated, a flow references an
// unknown core index, or a flow has a non-finite, non-positive or above
// MaxFlowBandwidthMBps bandwidth.
func NewCommGraph(cores []Core, flows []Flow) (*CommGraph, error) {
	g := &CommGraph{
		Cores:   append([]Core(nil), cores...),
		Flows:   append([]Flow(nil), flows...),
		nameIdx: make(map[string]int, len(cores)),
	}
	for i, c := range g.Cores {
		if c.Name == "" {
			return nil, fmt.Errorf("core %d has an empty name", i)
		}
		if _, dup := g.nameIdx[c.Name]; dup {
			return nil, fmt.Errorf("duplicate core name %q", c.Name)
		}
		// The comparisons below are false for NaN, so non-finite values need
		// an explicit check: the spec parsers accept anything ParseFloat does.
		if !finite(c.Width) || !finite(c.Height) || !finite(c.X) || !finite(c.Y) {
			return nil, fmt.Errorf("core %q has a non-finite geometry value", c.Name)
		}
		if c.Width <= 0 || c.Height <= 0 {
			return nil, fmt.Errorf("core %q has non-positive size %gx%g", c.Name, c.Width, c.Height)
		}
		if c.Layer < 0 {
			return nil, fmt.Errorf("core %q has negative layer %d", c.Name, c.Layer)
		}
		g.nameIdx[c.Name] = i
	}
	for i, f := range g.Flows {
		if f.Src < 0 || f.Src >= len(g.Cores) || f.Dst < 0 || f.Dst >= len(g.Cores) {
			return nil, fmt.Errorf("flow %d references core out of range (%d -> %d)", i, f.Src, f.Dst)
		}
		if f.Src == f.Dst {
			return nil, fmt.Errorf("flow %d is a self loop on core %q", i, g.Cores[f.Src].Name)
		}
		if bad := checkBandwidth(f.BandwidthMBps); bad != "" {
			return nil, fmt.Errorf("flow %d (%q -> %q) has %s", i, g.Cores[f.Src].Name, g.Cores[f.Dst].Name, bad)
		}
		if !finite(f.LatencyCycles) {
			return nil, fmt.Errorf("flow %d has non-finite latency constraint %g", i, f.LatencyCycles)
		}
		if f.LatencyCycles < 0 {
			return nil, fmt.Errorf("flow %d has negative latency constraint", i)
		}
	}
	return g, nil
}

// checkBandwidth describes what is wrong with a flow bandwidth, or returns
// "" for a valid one.
func checkBandwidth(bw float64) string {
	switch {
	case !finite(bw):
		return fmt.Sprintf("non-finite bandwidth %g", bw)
	case bw <= 0:
		return fmt.Sprintf("non-positive bandwidth %g", bw)
	case bw > MaxFlowBandwidthMBps:
		return fmt.Sprintf("bandwidth %g above the %g MB/s ceiling", bw, MaxFlowBandwidthMBps)
	}
	return ""
}

// CoreIndex returns the index of the named core, or -1 if it does not exist.
func (g *CommGraph) CoreIndex(name string) int {
	if i, ok := g.nameIdx[name]; ok {
		return i
	}
	return -1
}

// NumCores returns the number of cores.
func (g *CommGraph) NumCores() int { return len(g.Cores) }

// NumFlows returns the number of communication flows.
func (g *CommGraph) NumFlows() int { return len(g.Flows) }

// NumLayers returns the number of 3-D layers used by the core assignment
// (highest layer index + 1). A pure 2-D design returns 1.
func (g *CommGraph) NumLayers() int {
	maxL := 0
	for _, c := range g.Cores {
		if c.Layer > maxL {
			maxL = c.Layer
		}
	}
	return maxL + 1
}

// CoresInLayer returns the indices of the cores assigned to the given layer,
// in ascending index order.
func (g *CommGraph) CoresInLayer(layer int) []int {
	var idx []int
	for i, c := range g.Cores {
		if c.Layer == layer {
			idx = append(idx, i)
		}
	}
	return idx
}

// MaxBandwidth returns the maximum flow bandwidth (max_bw in Definition 3).
// It returns 0 for a graph without flows.
func (g *CommGraph) MaxBandwidth() float64 {
	var m float64
	for _, f := range g.Flows {
		if f.BandwidthMBps > m {
			m = f.BandwidthMBps
		}
	}
	return m
}

// MinLatency returns the tightest (smallest non-zero) latency constraint over
// all flows (min_lat in Definition 3). It returns 0 if no flow is
// latency-constrained.
func (g *CommGraph) MinLatency() float64 {
	m := 0.0
	for _, f := range g.Flows {
		if f.LatencyCycles > 0 && (m == 0 || f.LatencyCycles < m) {
			m = f.LatencyCycles
		}
	}
	return m
}

// TotalBandwidth returns the sum of the bandwidth of all flows in MB/s.
func (g *CommGraph) TotalBandwidth() float64 {
	var t float64
	for _, f := range g.Flows {
		t += f.BandwidthMBps
	}
	return t
}

// InterLayerFlows returns the flows whose source and destination cores are on
// different layers.
func (g *CommGraph) InterLayerFlows() []Flow {
	var out []Flow
	for _, f := range g.Flows {
		if g.Cores[f.Src].Layer != g.Cores[f.Dst].Layer {
			out = append(out, f)
		}
	}
	return out
}

// FlowsBetween returns the total bandwidth of flows from core src to core dst
// (directed).
func (g *CommGraph) FlowsBetween(src, dst int) float64 {
	var bw float64
	for _, f := range g.Flows {
		if f.Src == src && f.Dst == dst {
			bw += f.BandwidthMBps
		}
	}
	return bw
}

// Clone returns a deep copy of the graph.
func (g *CommGraph) Clone() *CommGraph {
	c, err := NewCommGraph(g.Cores, g.Flows)
	if err != nil {
		// A validated graph always clones cleanly.
		panic(fmt.Sprintf("model: clone of valid graph failed: %v", err))
	}
	return c
}

// Flatten2D returns a copy of the graph with every core assigned to layer 0
// and the cores re-floorplanned is left to the caller: positions are kept
// as-is. It is used to derive the 2-D reference implementation of a 3-D
// design.
func (g *CommGraph) Flatten2D() *CommGraph {
	c := g.Clone()
	for i := range c.Cores {
		c.Cores[i].Layer = 0
	}
	return c
}

// LayerHistogram returns, for each layer, the number of cores assigned to it.
func (g *CommGraph) LayerHistogram() []int {
	h := make([]int, g.NumLayers())
	for _, c := range g.Cores {
		h[c.Layer]++
	}
	return h
}

// SortedCoreNames returns all core names in lexicographic order. Useful for
// stable, reproducible reporting.
func (g *CommGraph) SortedCoreNames() []string {
	names := make([]string, len(g.Cores))
	for i, c := range g.Cores {
		names[i] = c.Name
	}
	sort.Strings(names)
	return names
}

// Validate re-runs the construction-time validation. It is useful after the
// caller mutates Cores or Flows in place.
func (g *CommGraph) Validate() error {
	ng, err := NewCommGraph(g.Cores, g.Flows)
	if err != nil {
		return err
	}
	g.nameIdx = ng.nameIdx
	return nil
}
