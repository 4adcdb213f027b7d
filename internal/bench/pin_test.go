package bench

import (
	"fmt"
	"testing"

	"cloversim/internal/machine"
)

// kernelPins are the exact node-aggregate Volumes (bytes) of every
// registry kernel at the default 256 Ki elements per stream, on icx,
// clx and a64fx, at one core and the full node, with the prefetchers on
// and off. They lock the hierarchy traffic each kernel issues, so a
// change to how RunKernel drives memsim must leave every value intact.
var kernelPins = []struct {
	machine string
	kernel  string
	cores   int
	pfOff   bool
	want    Volumes
}{
	{"icx", "copy", 1, false, Volumes{4194432, 2097152, 0, 0}},
	{"icx", "copy", 1, true, Volumes{4194304, 2097152, 0, 0}},
	{"icx", "copy", 72, false, Volumes{157367808, 150994944, 144631296, 0}},
	{"icx", "copy", 72, true, Volumes{186656256, 150994944, 115333632, 0}},
	{"icx", "copy_mem", 1, false, Volumes{2097280, 2097152, 0, 2097152}},
	{"icx", "copy_mem", 1, true, Volumes{2097152, 2097152, 0, 2097152}},
	{"icx", "copy_mem", 72, false, Volumes{175873536, 150994944, 0, 126125568}},
	{"icx", "copy_mem", 72, true, Volumes{175864320, 150994944, 0, 126125568}},
	{"icx", "daxpy", 1, false, Volumes{6291840, 2097152, 0, 0}},
	{"icx", "daxpy", 1, true, Volumes{6291456, 2097152, 0, 0}},
	{"icx", "daxpy", 72, false, Volumes{453012480, 150994944, 0, 0}},
	{"icx", "daxpy", 72, true, Volumes{452984832, 150994944, 0, 0}},
	{"icx", "store", 1, false, Volumes{2097152, 2097152, 0, 0}},
	{"icx", "store", 1, true, Volumes{2097152, 2097152, 0, 0}},
	{"icx", "store", 72, false, Volumes{32974848, 150994944, 118020096, 0}},
	{"icx", "store", 72, true, Volumes{56323584, 150994944, 94671360, 0}},
	{"icx", "store2", 1, false, Volumes{4194304, 4194304, 0, 0}},
	{"icx", "store2", 1, true, Volumes{4194304, 4194304, 0, 0}},
	{"icx", "store2", 72, false, Volumes{70801920, 301989888, 231187968, 0}},
	{"icx", "store2", 72, true, Volumes{117264384, 301989888, 184725504, 0}},
	{"icx", "store2_mem", 1, false, Volumes{0, 4194304, 0, 4194304}},
	{"icx", "store2_mem", 1, true, Volumes{0, 4194304, 0, 4194304}},
	{"icx", "store2_mem", 72, false, Volumes{50185728, 301989888, 0, 251804160}},
	{"icx", "store2_mem", 72, true, Volumes{50185728, 301989888, 0, 251804160}},
	{"icx", "store3", 1, false, Volumes{6291456, 6291456, 0, 0}},
	{"icx", "store3", 1, true, Volumes{6291456, 6291456, 0, 0}},
	{"icx", "store3", 72, false, Volumes{113416704, 452984832, 339568128, 0}},
	{"icx", "store3", 72, true, Volumes{181338624, 452984832, 271646208, 0}},
	{"icx", "store3_mem", 1, false, Volumes{0, 6291456, 0, 6291456}},
	{"icx", "store3_mem", 1, true, Volumes{0, 6291456, 0, 6291456}},
	{"icx", "store3_mem", 72, false, Volumes{74433024, 452984832, 0, 378551808}},
	{"icx", "store3_mem", 72, true, Volumes{74433024, 452984832, 0, 378551808}},
	{"icx", "store_mem", 1, false, Volumes{0, 2097152, 0, 2097152}},
	{"icx", "store_mem", 1, true, Volumes{0, 2097152, 0, 2097152}},
	{"icx", "store_mem", 72, false, Volumes{24869376, 150994944, 0, 126125568}},
	{"icx", "store_mem", 72, true, Volumes{24869376, 150994944, 0, 126125568}},
	{"icx", "stream", 1, false, Volumes{6291712, 2097152, 0, 0}},
	{"icx", "stream", 1, true, Volumes{6291456, 2097152, 0, 0}},
	{"icx", "stream", 72, false, Volumes{333268992, 150994944, 119734272, 0}},
	{"icx", "stream", 72, true, Volumes{356742144, 150994944, 96242688, 0}},
	{"icx", "stream_mem", 1, false, Volumes{4194560, 2097152, 0, 2097152}},
	{"icx", "stream_mem", 1, true, Volumes{4194304, 2097152, 0, 2097152}},
	{"icx", "stream_mem", 72, false, Volumes{326877696, 150994944, 0, 126125568}},
	{"icx", "stream_mem", 72, true, Volumes{326859264, 150994944, 0, 126125568}},
	{"icx", "sum", 1, false, Volumes{2097280, 0, 0, 0}},
	{"icx", "sum", 1, true, Volumes{2097152, 0, 0, 0}},
	{"icx", "sum", 72, false, Volumes{151004160, 0, 0, 0}},
	{"icx", "sum", 72, true, Volumes{150994944, 0, 0, 0}},
	{"icx", "update", 1, false, Volumes{2097280, 2097152, 0, 0}},
	{"icx", "update", 1, true, Volumes{2097152, 2097152, 0, 0}},
	{"icx", "update", 72, false, Volumes{151004160, 150994944, 0, 0}},
	{"icx", "update", 72, true, Volumes{150994944, 150994944, 0, 0}},
	{"clx", "copy", 1, false, Volumes{4194432, 2097152, 0, 0}},
	{"clx", "copy", 1, true, Volumes{4194304, 2097152, 0, 0}},
	{"clx", "copy", 56, false, Volumes{234888192, 117440512, 0, 0}},
	{"clx", "copy", 56, true, Volumes{234881024, 117440512, 0, 0}},
	{"clx", "copy_mem", 1, false, Volumes{2097280, 2097152, 0, 2097152}},
	{"clx", "copy_mem", 1, true, Volumes{2097152, 2097152, 0, 2097152}},
	{"clx", "copy_mem", 56, false, Volumes{123042304, 117440512, 0, 111845888}},
	{"clx", "copy_mem", 56, true, Volumes{123035136, 117440512, 0, 111845888}},
	{"clx", "daxpy", 1, false, Volumes{6291840, 2097152, 0, 0}},
	{"clx", "daxpy", 1, true, Volumes{6291456, 2097152, 0, 0}},
	{"clx", "daxpy", 56, false, Volumes{352343040, 117440512, 0, 0}},
	{"clx", "daxpy", 56, true, Volumes{352321536, 117440512, 0, 0}},
	{"clx", "store", 1, false, Volumes{2097152, 2097152, 0, 0}},
	{"clx", "store", 1, true, Volumes{2097152, 2097152, 0, 0}},
	{"clx", "store", 56, false, Volumes{117440512, 117440512, 0, 0}},
	{"clx", "store", 56, true, Volumes{117440512, 117440512, 0, 0}},
	{"clx", "store2", 1, false, Volumes{4194304, 4194304, 0, 0}},
	{"clx", "store2", 1, true, Volumes{4194304, 4194304, 0, 0}},
	{"clx", "store2", 56, false, Volumes{234881024, 234881024, 0, 0}},
	{"clx", "store2", 56, true, Volumes{234881024, 234881024, 0, 0}},
	{"clx", "store2_mem", 1, false, Volumes{0, 4194304, 0, 4194304}},
	{"clx", "store2_mem", 1, true, Volumes{0, 4194304, 0, 4194304}},
	{"clx", "store2_mem", 56, false, Volumes{11354112, 234881024, 0, 223526912}},
	{"clx", "store2_mem", 56, true, Volumes{11354112, 234881024, 0, 223526912}},
	{"clx", "store3", 1, false, Volumes{6291456, 6291456, 0, 0}},
	{"clx", "store3", 1, true, Volumes{6291456, 6291456, 0, 0}},
	{"clx", "store3", 56, false, Volumes{352321536, 352321536, 0, 0}},
	{"clx", "store3", 56, true, Volumes{352321536, 352321536, 0, 0}},
	{"clx", "store3_mem", 1, false, Volumes{0, 6291456, 0, 6291456}},
	{"clx", "store3_mem", 1, true, Volumes{0, 6291456, 0, 6291456}},
	{"clx", "store3_mem", 56, false, Volumes{17117184, 352321536, 0, 335204352}},
	{"clx", "store3_mem", 56, true, Volumes{17117184, 352321536, 0, 335204352}},
	{"clx", "store_mem", 1, false, Volumes{0, 2097152, 0, 2097152}},
	{"clx", "store_mem", 1, true, Volumes{0, 2097152, 0, 2097152}},
	{"clx", "store_mem", 56, false, Volumes{5594624, 117440512, 0, 111845888}},
	{"clx", "store_mem", 56, true, Volumes{5594624, 117440512, 0, 111845888}},
	{"clx", "stream", 1, false, Volumes{6291712, 2097152, 0, 0}},
	{"clx", "stream", 1, true, Volumes{6291456, 2097152, 0, 0}},
	{"clx", "stream", 56, false, Volumes{352335872, 117440512, 0, 0}},
	{"clx", "stream", 56, true, Volumes{352321536, 117440512, 0, 0}},
	{"clx", "stream_mem", 1, false, Volumes{4194560, 2097152, 0, 2097152}},
	{"clx", "stream_mem", 1, true, Volumes{4194304, 2097152, 0, 2097152}},
	{"clx", "stream_mem", 56, false, Volumes{240489984, 117440512, 0, 111845888}},
	{"clx", "stream_mem", 56, true, Volumes{240475648, 117440512, 0, 111845888}},
	{"clx", "sum", 1, false, Volumes{2097280, 0, 0, 0}},
	{"clx", "sum", 1, true, Volumes{2097152, 0, 0, 0}},
	{"clx", "sum", 56, false, Volumes{117447680, 0, 0, 0}},
	{"clx", "sum", 56, true, Volumes{117440512, 0, 0, 0}},
	{"clx", "update", 1, false, Volumes{2097280, 2097152, 0, 0}},
	{"clx", "update", 1, true, Volumes{2097152, 2097152, 0, 0}},
	{"clx", "update", 56, false, Volumes{117447680, 117440512, 0, 0}},
	{"clx", "update", 56, true, Volumes{117440512, 117440512, 0, 0}},
	{"a64fx", "copy", 1, false, Volumes{2137536, 2097152, 2056896, 0}},
	{"a64fx", "copy", 1, true, Volumes{2137408, 2097152, 2056896, 0}},
	{"a64fx", "copy", 48, false, Volumes{102601728, 100663296, 98731008, 0}},
	{"a64fx", "copy", 48, true, Volumes{102595584, 100663296, 98731008, 0}},
	{"a64fx", "copy_mem", 1, false, Volumes{2097280, 2097152, 0, 2097152}},
	{"a64fx", "copy_mem", 1, true, Volumes{2097152, 2097152, 0, 2097152}},
	{"a64fx", "copy_mem", 48, false, Volumes{102586368, 100663296, 0, 98746368}},
	{"a64fx", "copy_mem", 48, true, Volumes{102580224, 100663296, 0, 98746368}},
	{"a64fx", "daxpy", 1, false, Volumes{6291840, 2097152, 0, 0}},
	{"a64fx", "daxpy", 1, true, Volumes{6291456, 2097152, 0, 0}},
	{"a64fx", "daxpy", 48, false, Volumes{302008320, 100663296, 0, 0}},
	{"a64fx", "daxpy", 48, true, Volumes{301989888, 100663296, 0, 0}},
	{"a64fx", "store", 1, false, Volumes{40256, 2097152, 2056896, 0}},
	{"a64fx", "store", 1, true, Volumes{40256, 2097152, 2056896, 0}},
	{"a64fx", "store", 48, false, Volumes{1932288, 100663296, 98731008, 0}},
	{"a64fx", "store", 48, true, Volumes{1932288, 100663296, 98731008, 0}},
	{"a64fx", "store2", 1, false, Volumes{85824, 4194304, 4108480, 0}},
	{"a64fx", "store2", 1, true, Volumes{85824, 4194304, 4108480, 0}},
	{"a64fx", "store2", 48, false, Volumes{4119552, 201326592, 197207040, 0}},
	{"a64fx", "store2", 48, true, Volumes{4119552, 201326592, 197207040, 0}},
	{"a64fx", "store2_mem", 1, false, Volumes{0, 4194304, 0, 4194304}},
	{"a64fx", "store2_mem", 1, true, Volumes{0, 4194304, 0, 4194304}},
	{"a64fx", "store2_mem", 48, false, Volumes{3956736, 201326592, 0, 197369856}},
	{"a64fx", "store2_mem", 48, true, Volumes{3956736, 201326592, 0, 197369856}},
	{"a64fx", "store3", 1, false, Volumes{128768, 6291456, 6162688, 0}},
	{"a64fx", "store3", 1, true, Volumes{128768, 6291456, 6162688, 0}},
	{"a64fx", "store3", 48, false, Volumes{6180864, 301989888, 295809024, 0}},
	{"a64fx", "store3", 48, true, Volumes{6180864, 301989888, 295809024, 0}},
	{"a64fx", "store3_mem", 1, false, Volumes{128, 6291456, 0, 6291328}},
	{"a64fx", "store3_mem", 1, true, Volumes{128, 6291456, 0, 6291328}},
	{"a64fx", "store3_mem", 48, false, Volumes{5962752, 301989888, 0, 296027136}},
	{"a64fx", "store3_mem", 48, true, Volumes{5962752, 301989888, 0, 296027136}},
	{"a64fx", "store_mem", 1, false, Volumes{0, 2097152, 0, 2097152}},
	{"a64fx", "store_mem", 1, true, Volumes{0, 2097152, 0, 2097152}},
	{"a64fx", "store_mem", 48, false, Volumes{1916928, 100663296, 0, 98746368}},
	{"a64fx", "store_mem", 48, true, Volumes{1916928, 100663296, 0, 98746368}},
	{"a64fx", "stream", 1, false, Volumes{4234816, 2097152, 2056896, 0}},
	{"a64fx", "stream", 1, true, Volumes{4234560, 2097152, 2056896, 0}},
	{"a64fx", "stream", 48, false, Volumes{203271168, 100663296, 98731008, 0}},
	{"a64fx", "stream", 48, true, Volumes{203258880, 100663296, 98731008, 0}},
	{"a64fx", "stream_mem", 1, false, Volumes{4194560, 2097152, 0, 2097152}},
	{"a64fx", "stream_mem", 1, true, Volumes{4194304, 2097152, 0, 2097152}},
	{"a64fx", "stream_mem", 48, false, Volumes{203255808, 100663296, 0, 98746368}},
	{"a64fx", "stream_mem", 48, true, Volumes{203243520, 100663296, 0, 98746368}},
	{"a64fx", "sum", 1, false, Volumes{2097280, 0, 0, 0}},
	{"a64fx", "sum", 1, true, Volumes{2097152, 0, 0, 0}},
	{"a64fx", "sum", 48, false, Volumes{100669440, 0, 0, 0}},
	{"a64fx", "sum", 48, true, Volumes{100663296, 0, 0, 0}},
	{"a64fx", "update", 1, false, Volumes{2097280, 2097152, 0, 0}},
	{"a64fx", "update", 1, true, Volumes{2097152, 2097152, 0, 0}},
	{"a64fx", "update", 48, false, Volumes{100669440, 100663296, 0, 0}},
	{"a64fx", "update", 48, true, Volumes{100663296, 100663296, 0, 0}},
}

// TestRunKernelVolumesPinned runs every pinned configuration and
// compares Volumes exactly.
func TestRunKernelVolumesPinned(t *testing.T) {
	for _, p := range kernelPins {
		t.Run(fmt.Sprintf("%s/%s/%d/pfoff=%t", p.machine, p.kernel, p.cores, p.pfOff), func(t *testing.T) {
			spec, ok := machine.ByName(p.machine)
			if !ok {
				t.Fatalf("unknown machine %q", p.machine)
			}
			r, err := RunKernel(KernelOptions{Machine: spec, Kernel: p.kernel, Cores: p.cores, PFOff: p.pfOff})
			if err != nil {
				t.Fatal(err)
			}
			if r.V != p.want {
				t.Fatalf("volumes %+v, want %+v", r.V, p.want)
			}
		})
	}
}
