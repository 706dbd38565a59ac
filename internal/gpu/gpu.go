// Package gpu models a discrete GPU behind the device.Device interface.
//
// No CUDA bindings exist for this environment (the paper's target-3
// experiments are hardware-gated), so the device is a cost model only: it
// runs nothing and charges *modeled* time from the canonical discrete-GPU
// cost structure:
//
//	cost = launch overhead
//	     + PCIe transfer for non-resident inputs (+ results read back)
//	     + max(compute at massive parallel throughput,
//	           device-memory traffic at HBM bandwidth)
//
// The model preserves exactly the behaviour the paper's adaptive placement
// depends on: a fixed per-kernel cost that dominates small inputs, a
// transfer term that dominates cold data, and a throughput advantage that
// dominates large resident data. Defaults approximate a mid-range PCIe 3.0
// part (5 µs launch, 12 GB/s PCIe, 500 GB/s HBM, 100 elem-ops/ns).
package gpu

import (
	"sync"
	"time"

	"repro/internal/device"
)

// Config parameterizes the simulated hardware.
type Config struct {
	LaunchOverhead time.Duration
	// PCIeBytesPerNs is host↔device bandwidth in bytes per nanosecond.
	PCIeBytesPerNs float64
	// HBMBytesPerNs is device-memory bandwidth.
	HBMBytesPerNs float64
	// ElemOpsPerNs is aggregate arithmetic throughput.
	ElemOpsPerNs float64
	// MemoryBytes is device memory capacity for residency.
	MemoryBytes int
}

// DefaultConfig models a mid-range discrete accelerator.
func DefaultConfig() Config {
	return Config{
		LaunchOverhead: 5 * time.Microsecond,
		PCIeBytesPerNs: 12,
		HBMBytesPerNs:  500,
		ElemOpsPerNs:   100,
		MemoryBytes:    4 << 30,
	}
}

// Device is the simulated GPU. It is safe for concurrent use: the
// residency cache synchronizes internally.
type Device struct {
	cfg Config

	mu       sync.Mutex
	resident map[string]int
	used     int
	order    []string // FIFO eviction order
}

// New creates a simulated GPU.
func New(cfg Config) *Device {
	return &Device{cfg: cfg, resident: map[string]int{}}
}

var _ device.Device = (*Device)(nil)

// Name implements device.Device.
func (d *Device) Name() string { return "gpu" }

// transferBytes sums the sizes of non-resident inputs (caller holds mu).
func (d *Device) transferBytes(k device.Kernel) int {
	if len(k.Inputs) == 0 {
		// Unnamed inputs cannot be resident: charge the full volume.
		return k.BytesIn
	}
	bytes := 0
	per := k.BytesIn / max(len(k.Inputs), 1)
	for _, in := range k.Inputs {
		if _, ok := d.resident[in]; !ok {
			bytes += per
		}
	}
	return bytes
}

// Estimate implements device.Device.
func (d *Device) Estimate(k device.Kernel) device.Cost {
	d.mu.Lock()
	transfer := time.Duration(float64(d.transferBytes(k)+k.BytesOut) / d.cfg.PCIeBytesPerNs)
	d.mu.Unlock()
	compute := float64(k.Elems) * max(k.OpsPerElem, 1) / d.cfg.ElemOpsPerNs
	hbm := float64(k.BytesIn+k.BytesOut) / d.cfg.HBMBytesPerNs
	total := d.cfg.LaunchOverhead + transfer + time.Duration(max(compute, hbm))
	return device.Cost{Modeled: total, Transfer: transfer}
}

// MakeResident pins an input array in device memory, evicting the oldest
// resident arrays (FIFO) to make room, so later kernels over it skip its
// transfer. An array larger than the whole memory is not made resident
// and evicts nothing.
func (d *Device) MakeResident(name string, bytes int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.resident[name]; ok || bytes > d.cfg.MemoryBytes {
		return
	}
	for d.used+bytes > d.cfg.MemoryBytes {
		victim := d.order[0]
		d.order = d.order[1:]
		d.used -= d.resident[victim]
		delete(d.resident, victim)
	}
	d.resident[name] = bytes
	d.order = append(d.order, name)
	d.used += bytes
}

// Resident reports whether the named array is in device memory.
func (d *Device) Resident(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.resident[name]
	return ok
}
