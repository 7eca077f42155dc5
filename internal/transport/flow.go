package transport

import (
	"fmt"

	"ecnsharp/internal/device"
	"ecnsharp/internal/sim"
)

// Flow ties a sender/receiver pair together and records its outcome.
type Flow struct {
	ID    uint64
	Src   *device.Host
	Dst   *device.Host
	Size  int64
	Start sim.Time

	Sender   *Sender
	Receiver *Receiver

	FCT  sim.Time
	Done bool
}

// StartFlow creates both endpoints of a flow and schedules its start. The
// receiver registers immediately (it must exist before the first segment
// can arrive); the sender starts transmitting at start. onDone, if
// non-nil, fires at completion with the finished flow.
func StartFlow(eng *sim.Engine, cfg Config, src, dst *device.Host,
	flowID uint64, size int64, start sim.Time, onDone func(*Flow)) *Flow {
	if src == dst {
		panic(fmt.Sprintf("transport: flow %d has identical endpoints", flowID))
	}
	f := &Flow{ID: flowID, Src: src, Dst: dst, Size: size, Start: start}
	f.Receiver = NewReceiver(eng, cfg, dst, flowID, src.ID)
	f.Sender = NewSender(eng, cfg, src, flowID, dst.ID, size, func(fct sim.Time) {
		f.FCT = fct
		f.Done = true
		f.Receiver.Close()
		if onDone != nil {
			onDone(f)
		}
	})
	eng.ScheduleArg(start, senderStart, f.Sender)
	return f
}
