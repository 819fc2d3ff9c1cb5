package disk

import (
	"fmt"

	"vswapsim/internal/fault"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// Kind distinguishes reads from writes for accounting.
type Kind int

const (
	Read Kind = iota
	Write
)

func (k Kind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Device is a single physical drive with a first-come-first-served queue.
// Requests are timed analytically: because service order equals submission
// order, the completion time of a request is fully determined at submission
// (max(now, device-free) plus position-dependent service time), which keeps
// the simulation deterministic and fast.
type Device struct {
	env     *sim.Env
	model   LatencyModel
	met     *metrics.Set
	inj     *fault.Injector // nil unless fault injection is on
	headPos int64           // next sequential block after the last transfer
	freeAt  sim.Time        // when the device finishes its queued work

	// Handles on the metrics every request updates, resolved once in
	// NewDevice instead of one string lookup per update.
	ops, busy, readSectors, writeSectors, diskWait *metrics.Counter
	queueHist, serviceHist                         *metrics.Histogram
}

// Injected-error retry policy: the firmware/driver pair retries a failed
// transfer with exponential backoff up to errMaxRetries times; exhaustion
// is counted and the request then completes anyway — the analytic queue
// model has no error propagation, so exhaustion models recovery at the
// controller level, visible only as latency and counters.
const (
	errMaxRetries   = 5
	errRetryBackoff = 500 * sim.Microsecond
)

// SetInjector attaches a fault injector to the device (nil turns
// injection off). Injected read/write errors extend the request's service
// time by backoff-plus-retransfer per retry; injected latency spikes
// extend it by the plan's spike duration. Both therefore show up in the
// existing hist.disk.service.ns distribution.
func (d *Device) SetInjector(in *fault.Injector) { d.inj = in }

// NewDevice returns a drive using the given latency model. Metrics may be
// nil to disable accounting.
func NewDevice(env *sim.Env, model LatencyModel, met *metrics.Set) *Device {
	if met == nil {
		met = metrics.NewSet()
	}
	return &Device{
		env: env, model: model, met: met,
		ops:          met.Counter(metrics.DiskOps),
		busy:         met.Counter(metrics.DiskBusy),
		readSectors:  met.Counter(metrics.DiskReadSectors),
		writeSectors: met.Counter(metrics.DiskWriteSectors),
		diskWait:     met.Counter(metrics.TimeDiskWait),
		queueHist:    met.Histogram(metrics.HistDiskQueue),
		serviceHist:  met.Histogram(metrics.HistDiskService),
	}
}

// Submit enqueues a transfer of nblocks starting at block `start` and
// returns its completion time without blocking. Use it for asynchronous
// I/O such as readahead.
func (d *Device) Submit(kind Kind, start int64, nblocks int) sim.Time {
	if nblocks <= 0 {
		panic(fmt.Sprintf("disk: submit %d blocks", nblocks))
	}
	if start < 0 || start+int64(nblocks) > d.model.TotalBlocks {
		panic(fmt.Sprintf("disk: access [%d,+%d) out of range", start, nblocks))
	}
	arrive := d.env.Now()
	begin := d.freeAt
	if arrive > begin {
		begin = arrive
	}
	svc := d.model.Service(d.headPos, start, nblocks)
	if d.inj != nil {
		svc += d.inj.DiskDelay()
		for retries := 0; d.inj.DiskError(kind == Write); {
			if retries == errMaxRetries {
				d.met.Inc(metrics.FaultDiskExhausted)
				break
			}
			backoff := errRetryBackoff << retries
			retries++
			// Backoff, then re-transfer from the same position.
			svc += backoff + d.model.Service(start, start, nblocks)
			d.met.Inc(metrics.FaultDiskRetries)
			d.met.Histogram(metrics.HistFaultBackoff).Observe(backoff)
		}
	}
	done := begin.Add(svc)
	d.freeAt = done
	d.headPos = start + int64(nblocks)

	d.ops.Inc()
	d.busy.Add(int64(svc))
	d.queueHist.Observe(begin.Sub(arrive))
	d.serviceHist.Observe(svc)
	sectors := int64(nblocks) * SectorsPerBlock
	if kind == Read {
		d.readSectors.Add(sectors)
	} else {
		d.writeSectors.Add(sectors)
	}
	return done
}

// Access performs a blocking transfer on behalf of process p: it submits
// the request and sleeps until the device completes it.
func (d *Device) Access(p *sim.Proc, kind Kind, start int64, nblocks int) {
	d.WaitFor(p, d.Submit(kind, start, nblocks))
}

// WaitFor blocks p until the completion time of a previously submitted
// request, charging the stall to the disk-wait phase. Callers that sleep on
// a Submit result should go through here so "time blocked on the disk" is
// accounted in one place.
func (d *Device) WaitFor(p *sim.Proc, done sim.Time) {
	if wait := done.Sub(d.env.Now()); wait > 0 {
		d.diskWait.Add(int64(wait))
	}
	p.SleepUntil(done)
}

// FreeAt reports when the device drains its current queue.
func (d *Device) FreeAt() sim.Time { return d.freeAt }
