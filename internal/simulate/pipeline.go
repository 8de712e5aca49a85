package simulate

import "fmt"

// PipelineConfig describes one single-server alignment configuration for
// the fluid pipeline model: total I/O volumes, compute rate, and the
// storage path the bytes travel.
type PipelineConfig struct {
	Name string

	TotalBases  float64
	ComputeRate float64 // bases/s with all aligner threads busy

	ReadBytes  float64 // total input bytes
	WriteBytes float64 // total output bytes

	// Storage path. Exactly one of the following shapes applies:
	//  - SharedDiskBW > 0: reads and writes share one device (single disk
	//    or RAID0) through the OS buffer cache (writeback model).
	//  - ChannelBW > 0: reads and writes share a single network channel
	//    (the rados pipe path of Table 1's "Network" row for SNAP).
	//  - ReadBW/WriteBW > 0: independent read/write paths (Persona on
	//    Ceph: reads and replicated writes ride separate flows under the
	//    NIC cap).
	SharedDiskBW float64
	ChannelBW    float64
	ReadBW       float64
	WriteBW      float64
}

const (
	// Buffer cache writeback (shared-disk path): dirty bytes accumulate
	// until dirtyHigh, then the flusher drains the cache to dirtyLow at
	// full disk bandwidth, starving reads — the §5.3 observation that "the
	// operating system's buffer cache writeback policy competes with the
	// application-driven data reads".
	dirtyHigh = 1.5e9
	dirtyLow  = 0.3e9
	// inputBufferBytes caps read-ahead.
	inputBufferBytes = 256e6
)

// UtilSample is one point of the Fig. 5 CPU-utilization trace.
type UtilSample struct {
	T         float64 // seconds
	CPU       float64 // fraction of aligner capacity busy [0,1]
	ReadMBps  float64
	WriteMBps float64
}

// PipelineResult is the outcome of a fluid simulation.
type PipelineResult struct {
	Name                  string
	Seconds               float64
	Trace                 []UtilSample
	AvgCPU                float64
	ReadBytes, WriteBytes float64
}

// RunPipeline advances a fluid model of the read→align→write pipeline in
// fixed steps until all bases are aligned and all output has reached
// stable storage.
func RunPipeline(cfg PipelineConfig) (PipelineResult, error) {
	if cfg.TotalBases <= 0 || cfg.ComputeRate <= 0 {
		return PipelineResult{}, fmt.Errorf("simulate: bad pipeline config %+v", cfg)
	}
	paths := 0
	if cfg.SharedDiskBW > 0 {
		paths++
	}
	if cfg.ChannelBW > 0 {
		paths++
	}
	if cfg.ReadBW > 0 || cfg.WriteBW > 0 {
		paths++
	}
	if paths != 1 {
		return PipelineResult{}, fmt.Errorf("simulate: config %q must select exactly one storage path", cfg.Name)
	}
	readPerBase := cfg.ReadBytes / cfg.TotalBases
	writePerBase := cfg.WriteBytes / cfg.TotalBases

	const dt = 0.05
	const sampleEvery = 1.0 // seconds per trace sample

	var (
		t                         float64
		basesDone                 float64
		bytesRead                 float64
		inputBuf                  float64 // bytes read but not yet consumed by align
		dirty                     float64 // bytes written but not yet flushed
		flushing                  bool
		trace                     []UtilSample
		cpuAccum                  float64
		cpuSamples                int
		winRead, winWrite, winCPU float64
		winT                      float64
	)

	// Completion uses a half-base / half-byte epsilon: the fluid quantities
	// asymptote toward their totals and would otherwise never land exactly.
	for {
		if basesDone >= cfg.TotalBases-0.5 && dirty <= 0.5 {
			break
		}
		if t > 1e7 {
			return PipelineResult{}, fmt.Errorf("simulate: %q did not converge", cfg.Name)
		}

		// Bandwidth available this step.
		var readBW, writeBW float64
		switch {
		case cfg.SharedDiskBW > 0:
			if flushing {
				readBW, writeBW = 0, cfg.SharedDiskBW
			} else {
				readBW, writeBW = cfg.SharedDiskBW, 0
			}
		case cfg.ChannelBW > 0:
			// Reads and writes share the channel; pending output drains
			// first (the pipe applies back-pressure), reads get the rest.
			writeNeed := dirty / dt
			if writeNeed > cfg.ChannelBW {
				writeNeed = cfg.ChannelBW
			}
			writeBW = writeNeed
			readBW = cfg.ChannelBW - writeBW
		default:
			readBW, writeBW = cfg.ReadBW, cfg.WriteBW
		}

		// Read stage.
		var readBytesStep float64
		if bytesRead < cfg.ReadBytes {
			room := inputBufferBytes - inputBuf
			readBytesStep = readBW * dt
			if readBytesStep > room {
				readBytesStep = room
			}
			if readBytesStep > cfg.ReadBytes-bytesRead {
				readBytesStep = cfg.ReadBytes - bytesRead
			}
			if readBytesStep < 0 {
				readBytesStep = 0
			}
			bytesRead += readBytesStep
			inputBuf += readBytesStep
		}

		// Align stage: limited by compute rate and input availability.
		alignBases := cfg.ComputeRate * dt
		if remaining := cfg.TotalBases - basesDone; alignBases > remaining {
			alignBases = remaining
		}
		if readPerBase > 0 && bytesRead < cfg.ReadBytes-0.5 {
			// While input is still streaming, consumption is bounded by
			// what has arrived. Once everything is read, the remaining
			// buffered fluid is exactly the remaining bases (modulo float
			// residue), so the clamp above suffices.
			if avail := inputBuf / readPerBase; alignBases > avail {
				alignBases = avail
			}
		}
		basesDone += alignBases
		inputBuf -= alignBases * readPerBase
		dirty += alignBases * writePerBase

		// Write-back stage.
		if cfg.SharedDiskBW > 0 {
			if !flushing && (dirty >= dirtyHigh || (basesDone >= cfg.TotalBases-0.5 && dirty > 0.5)) {
				flushing = true
			}
			if flushing {
				flushed := writeBW * dt
				if flushed > dirty {
					flushed = dirty
				}
				dirty -= flushed
				winWrite += flushed
				// Stay in the flush state during the final drain (all
				// bases aligned): everything left must reach the disk.
				finalDrain := basesDone >= cfg.TotalBases-0.5
				if dirty <= dirtyLow && !finalDrain {
					flushing = false
				}
			}
		} else {
			flushed := writeBW * dt
			if flushed > dirty {
				flushed = dirty
			}
			dirty -= flushed
			winWrite += flushed
		}

		cpu := alignBases / (cfg.ComputeRate * dt)
		cpuAccum += cpu
		cpuSamples++
		winRead += readBytesStep
		winCPU += cpu * dt
		winT += dt
		t += dt
		if winT >= sampleEvery {
			trace = append(trace, UtilSample{
				T:         t,
				CPU:       winCPU / winT,
				ReadMBps:  winRead / winT / 1e6,
				WriteMBps: winWrite / winT / 1e6,
			})
			winRead, winWrite, winCPU, winT = 0, 0, 0, 0
		}
	}

	res := PipelineResult{
		Name:       cfg.Name,
		Seconds:    t,
		Trace:      trace,
		ReadBytes:  cfg.ReadBytes,
		WriteBytes: cfg.WriteBytes,
	}
	if cpuSamples > 0 {
		res.AvgCPU = cpuAccum / float64(cpuSamples)
	}
	return res, nil
}

// serverPair is SNAP (gzipped FASTQ → SAM) and Persona (AGD) aligning the
// paper's dataset on one server, named "snap-"+where and "persona-"+where.
// Reads and writes share one device of bandwidth diskBW; a zero diskBW
// leaves the storage path to the caller.
func serverPair(p PaperParams, where string, diskBW float64) (snap, persona PipelineConfig) {
	snap = PipelineConfig{Name: "snap-" + where, TotalBases: p.TotalBases, ComputeRate: p.NodeRate,
		ReadBytes: p.FASTQReadBytes, WriteBytes: p.SAMWriteBytes, SharedDiskBW: diskBW}
	persona = snap
	persona.Name = "persona-" + where
	persona.ReadBytes, persona.WriteBytes = p.AGDReadBytes, p.AGDWriteBytes
	return snap, persona
}

// Table1Row is one row of the paper's Table 1.
type Table1Row struct {
	Config         string
	SNAPSeconds    float64
	PersonaSeconds float64
	Speedup        float64
}

// Table1 reproduces the paper's Table 1: single-server dataset alignment
// time for SNAP (gzipped FASTQ → SAM) versus Persona (AGD), across three
// storage configurations, plus the data-volume row.
func Table1(p PaperParams) ([]Table1Row, error) {
	snapSingle, personaSingle := serverPair(p, "singledisk", p.DiskBW)
	snapRAID, personaRAID := serverPair(p, "raid0", p.DiskBW*float64(p.RAIDDisks))
	snapNet, personaNet := serverPair(p, "network", 0)
	snapNet.ChannelBW = p.PipeBW
	personaNet.ReadBW, personaNet.WriteBW = p.NICBW, p.NICBW
	pairs := []struct {
		name          string
		snap, persona PipelineConfig
	}{
		{"Disk(Single)", snapSingle, personaSingle},
		{"Disk(RAID)", snapRAID, personaRAID},
		{"Network", snapNet, personaNet},
	}
	var rows []Table1Row
	for _, pr := range pairs {
		s, err := RunPipeline(pr.snap)
		if err != nil {
			return nil, err
		}
		g, err := RunPipeline(pr.persona)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Config:         pr.name,
			SNAPSeconds:    s.Seconds,
			PersonaSeconds: g.Seconds,
			Speedup:        s.Seconds / g.Seconds,
		})
	}
	return rows, nil
}

// Fig5 produces the CPU-utilization traces of Fig. 5: SNAP vs Persona on a
// single disk (a) and on RAID0 (b).
func Fig5(p PaperParams) (map[string]PipelineResult, error) {
	snapSingle, personaSingle := serverPair(p, "singledisk", p.DiskBW)
	snapRAID, personaRAID := serverPair(p, "raid0", p.DiskBW*float64(p.RAIDDisks))
	configs := []PipelineConfig{snapSingle, personaSingle, snapRAID, personaRAID}
	out := make(map[string]PipelineResult, len(configs))
	for _, cfg := range configs {
		res, err := RunPipeline(cfg)
		if err != nil {
			return nil, err
		}
		out[cfg.Name] = res
	}
	return out, nil
}
