package main

// recordedDigests holds the SHA-256 of the merged result bytes of each
// (workload, seed) pair measured when the benchmark was defined: the
// grid's sweep.MergeBytes for cold-paper-grid and warm-replay-grid, the
// warm grid's for serve-restart. A run whose results hash differently has
// changed what the program computes.
var recordedDigests = map[string]string{
	"cold-paper-grid/1":   "a1f311e0055215d6efa49f88ce8eb286aa6037d74d31c3633c6740a93a845ea6",
	"cold-paper-grid/2":   "9c8f4b770f830c387e82431bbed43ed9f97700879c1e353133045131311642d8",
	"cold-paper-grid/3":   "a228b23b3d74cdcc0153abd5f2df0e569e1bc08c0967ff48d617c09676958a70",
	"cold-paper-grid/4":   "f0d5afe11c2c901b7d9f438eef05b285f36aa940fe9ee838890c3bba65b57091",
	"cold-paper-grid/5":   "644687f5e3e4518f8caae15b27f176774bafaa5cc1c42330c01e355f2de26576",
	"cold-paper-grid/6":   "a4475346eda46abea917d990c73506718132919b8946f1a76b268bcb0f6102b0",
	"cold-paper-grid/7":   "91bd1b04f3dca9daffd68293be627811c39297bbc1f12bbb629de47298659916",
	"cold-paper-grid/8":   "32175350258bbded2372d12160def5c58ee44cd4b2e3a2305e4e32e19b247f15",
	"cold-paper-grid/9":   "953692b4cf83ff004cc574074bcad322b82d80a56b17b1e2c90dc8afd3831e2a",
	"cold-paper-grid/10":  "5a58dc7b76cdbace8185df616780fc144868ed0b20ea9f13feaef22202df3ff1",
	"warm-replay-grid/1":  "7fa6878c38e0c2598eca1282bcfade16da843a8c8907fd85f21543ea6a53290b",
	"warm-replay-grid/2":  "388712d22461198ebb593dc4b418c6e377591dc3463d798f29ef1c79f8870f0f",
	"warm-replay-grid/3":  "d203207323c79ef057e13ebf5fd1787200f57c684effbf10f44277a778ac1c90",
	"warm-replay-grid/4":  "609c534cfd48bd366a53b6fab20d052d722f6914576bf78c862d4edc4eaa688b",
	"warm-replay-grid/5":  "b205fe812d66d4343b727038bb9af2df39d9702d9b24d3631545fb6d4c31e67c",
	"warm-replay-grid/6":  "8005f18a68ad92eab3ca739bf7eeb1eebf1d37430a1fd03b62c997d07f0526d3",
	"warm-replay-grid/7":  "c2363016d2c7bfe3e49db535ad8463dcbcfe36570175613f40ea7ab4d453115c",
	"warm-replay-grid/8":  "914dd7f41c2edb172c1aff4202863a75c63e427abb190d6b65efeff0f2db2d78",
	"warm-replay-grid/9":  "ee53bb26df6699577d8941b8824847683730636b84f0537da04447bee7147598",
	"warm-replay-grid/10": "0003db1fc62c42f9d469a5531688ae9393ed555c4055b45d47a95b013f5d08f0",
	"serve-restart/1":     "d2556673c5f84cb237d36c37dfa202293a495c60310b1bfbe46e3c83a8221d74",
	"serve-restart/2":     "4681896b4c9d7fcfcb0e4e1fe80288053c95b74a919036553fd9fa26f3565349",
	"serve-restart/3":     "d02396e5841cd178bc7e62999f56bcb6c1077cbabbd94c748d4f3d2a4f2ae057",
	"serve-restart/4":     "a4b0d7499f5269037d61ca2e3e1a1cd3db447cbc6fb78a940901ad85a42d919e",
	"serve-restart/5":     "0d89d37a96d6d555016f315f16b3ae7f99ab0c3ca3a1a2c2f363292eeb7a328e",
	"serve-restart/6":     "44660c6b491f4d194c5a768483e90eb443cdda8b533b4287f860759c6162fb09",
	"serve-restart/7":     "7e2e3615c1775b8c02c796b4b32d65bc260286c0b22d5705da374536fbb1d4da",
	"serve-restart/8":     "350743e1bab92651a0941d1de9805334ea40a61e7ea3a093dd85c865b250a51d",
	"serve-restart/9":     "5e6f6a288ba551a3d89b583a284e590cfb37f742080e55e0ec8b22b5d673ff10",
	"serve-restart/10":    "bfbf80247e3e80fdce3db986025075a537dde1216a4a5204f71030a428be6e5d",
}
