// Package device models execution targets for the VM's third research
// target (§IV): running (parts of) a program "on multiple hardware
// platforms, making adaptive decisions which strategy to use ... but also on
// which hardware".
//
// A Device is a cost model. The CPU models throughput from a calibrated
// per-element cost and memory bandwidth; the simulated GPU (package gpu)
// adds launch overhead, PCIe transfer for non-resident inputs and device
// memory residency. The Placer chooses a device per kernel using the
// models, corrected by a learned per-device bias (EWMA), which reproduces
// the canonical CPU-vs-GPU crossover: small or non-resident inputs favour
// the CPU; large, device-resident inputs favour the GPU. No query runs on a
// chosen device: placement is a model that TestPaperE6Placement asserts.
package device

import (
	"sync"
	"time"

	"repro/internal/profile"
)

// Kernel describes one data-parallel work item for costing purposes.
type Kernel struct {
	// Elems is the number of elements processed.
	Elems int
	// BytesIn / BytesOut are the data volumes the kernel touches.
	BytesIn, BytesOut int
	// OpsPerElem approximates arithmetic intensity.
	OpsPerElem float64
	// Inputs names the arrays consumed (for residency decisions).
	Inputs []string
}

// Cost is a device's modeled cost of a kernel.
type Cost struct {
	// Modeled is the total modeled time.
	Modeled time.Duration
	// Transfer is the portion spent moving data (simulated devices only).
	Transfer time.Duration
}

// Device is an execution target's cost model.
type Device interface {
	// Name returns the device name ("cpu", "gpu").
	Name() string
	// Estimate predicts the cost of k.
	Estimate(k Kernel) Cost
}

// CPU is the host device: zero launch overhead, no transfers, throughput
// modeled from calibrated per-element cost and memory bandwidth.
type CPU struct {
	// NsPerElemOp calibrates Estimate (default 1.0 ns per element-op).
	NsPerElemOp float64
	// BytesPerNs is the memory bandwidth (default 16 B/ns ≈ 16 GB/s).
	BytesPerNs float64
}

// NewCPU returns a CPU device with default calibration.
func NewCPU() *CPU { return &CPU{NsPerElemOp: 1.0, BytesPerNs: 16} }

// Name implements Device.
func (c *CPU) Name() string { return "cpu" }

// Estimate implements Device.
func (c *CPU) Estimate(k Kernel) Cost {
	compute := float64(k.Elems) * max(k.OpsPerElem, 1) * c.NsPerElemOp
	mem := float64(k.BytesIn+k.BytesOut) / c.BytesPerNs
	return Cost{Modeled: time.Duration(max(compute, mem))}
}

// Placer picks a device per kernel: model-based, with each device's
// estimates scaled by a bias learned (EWMA) from observed/estimated cost
// ratios, so a mis-calibrated model self-corrects — the cross-hardware
// generalization of micro-adaptivity.
//
// A Placer is safe for concurrent use: Choose, ObserveForTest, Bias and
// DecisionCounts synchronize internally. Reading the Devices slice or the
// Decisions map directly is only safe while no placements are in flight.
type Placer struct {
	Devices []Device

	mu sync.Mutex
	// bias[deviceName] multiplies the device's estimates (learned).
	bias map[string]*profile.EWMA
	// Decisions counts placements per device for reports (guarded by mu;
	// use DecisionCounts for a concurrent-safe snapshot).
	Decisions map[string]int
}

// NewPlacer creates a placer over the given devices.
func NewPlacer(devices ...Device) *Placer {
	p := &Placer{Devices: devices, bias: map[string]*profile.EWMA{}, Decisions: map[string]int{}}
	for _, d := range devices {
		p.bias[d.Name()] = profile.NewEWMA(0.2)
	}
	return p
}

// Choose returns the device with the lowest bias-corrected estimate.
func (p *Placer) Choose(k Kernel) Device {
	var best Device
	var bestCost float64
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range p.Devices {
		est := float64(d.Estimate(k).Modeled)
		est *= p.bias[d.Name()].Value(1)
		if best == nil || est < bestCost {
			best, bestCost = d, est
		}
	}
	p.Decisions[best.Name()]++
	return best
}

// Bias returns the current learned bias multiplier for a device (1 when the
// device is unknown or has no feedback yet).
func (p *Placer) Bias(deviceName string) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.bias[deviceName]; ok {
		return e.Value(1)
	}
	return 1
}

// DecisionCounts returns a snapshot of placements per device.
func (p *Placer) DecisionCounts() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int, len(p.Decisions))
	for name, n := range p.Decisions {
		out[name] = n
	}
	return out
}

// ObserveForTest feeds a raw observed/estimated cost ratio into a device's
// bias, for tests that simulate mis-calibrated models.
func (p *Placer) ObserveForTest(deviceName string, ratio float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.bias[deviceName]; ok {
		e.Observe(ratio)
	}
}
