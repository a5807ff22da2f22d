package encoding_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"etsqp/internal/encoding"
	_ "etsqp/internal/encoding/chimp"
	_ "etsqp/internal/encoding/elf"
	_ "etsqp/internal/encoding/gorilla"
	_ "etsqp/internal/encoding/rlbe"
	_ "etsqp/internal/encoding/sprintz"
	_ "etsqp/internal/encoding/ts2diff"
	_ "etsqp/internal/fastlanes"
)

// edgeColumns are int64 extremes every codec must either round-trip or
// refuse at encode time: deltas of 2^62 and MaxInt64, which need
// Fibonacci digits past F(91), a swing across the whole domain, a sum
// that leaves int64 and comes back, and a delta of MinInt64.
var edgeColumns = [][]int64{
	{0, 1 << 62},
	{0, math.MaxInt64},
	{math.MinInt64, math.MaxInt64, math.MinInt64},
	{math.MaxInt64, 1, -1, 0},
	{0, math.MinInt64},
}

// goldenColumns are the seeded inputs whose encodings TestGoldenPageBytes
// pins: wave pages that pack at widths 4-20, regular and jittered
// clocks, an RLBE-shaped plateau, a random walk, and int64 edges.
func goldenColumns() map[string][]int64 {
	const n = 4096
	rng := rand.New(rand.NewSource(46))
	cols := map[string][]int64{}
	for _, w := range []uint{4, 8, 12, 16, 20} {
		vals := make([]int64, n)
		for i := 1; i < n; i++ {
			vals[i] = vals[i-1] + rng.Int63n(1<<w) - 1<<(w-1)
		}
		cols[fmt.Sprintf("wave%02d", w)] = vals
	}
	regular, jitter := make([]int64, n), make([]int64, n)
	for i := range regular {
		regular[i] = 1_700_000_000_000 + int64(i)*1000
		jitter[i] = regular[i] + rng.Int63n(200)
	}
	cols["regular"], cols["jitter"] = regular, jitter
	plateau, walk := make([]int64, n), make([]int64, n)
	for i := 1; i < n; i++ {
		plateau[i] = plateau[i-1]
		if rng.Intn(50) == 0 {
			plateau[i] += rng.Int63n(2001) - 1000
		}
		walk[i] = walk[i-1] + rng.Int63n(7) - 3
	}
	cols["plateau"], cols["walk"] = plateau, walk
	cols["empty"] = nil
	cols["single"] = []int64{-7}
	cols["pair"] = []int64{3, math.MinInt64}
	cols["extremes"] = []int64{math.MaxInt64, math.MinInt64, 0, math.MaxInt64, -1, math.MinInt64}
	cols["bigdelta"] = []int64{0, 1 << 60, -(1 << 60), 5, 5, 5}
	for i, c := range edgeColumns {
		cols[fmt.Sprintf("edge%d", i)] = c
	}
	return cols
}

// goldenPageSHA256 holds the SHA-256 of every codec's Encode output on
// goldenColumns, recorded from the byte-at-a-time bit writer that the
// word writer replaced: the on-disk format must not move a byte. A
// column a codec did not round-trip when recorded has no entry (RLBE's
// deltas past F(91)).
var goldenPageSHA256 = map[string]string{
	"chimp/bigdelta":        "44de7a7783dd30f15bc0ff60504d8ffc0032839ca57b20ca48bdfca8b210a592",
	"chimp/edge0":           "65693db7324dec49cf487666d365a6e4475c6ecb6c51b6e56d470215549af921",
	"chimp/edge1":           "b12c5dd3fef9b5b6d5add003444d0d62542ff38f4fc992e0e4a9d340aa4712b1",
	"chimp/edge2":           "ca1df083043654b72561bae22d35849ffb28b1bc065b5cc5cbfa51495e60b6cf",
	"chimp/edge3":           "327d8c9347eaa7d6d67f772f4916edee0752146a711ba910d853d7aa66691bd4",
	"chimp/edge4":           "b01811e00019fc262266eec3239408db6efb36092c40fd3cb0c226b5b5919947",
	"chimp/empty":           "fbbd3aed33091c90bcf9dac76afdfc943230084a495d665bf8a4d2b0295854e3",
	"chimp/extremes":        "33e5040deddd71892a619f5155e58181251332e26b3f0bc83f5eebc1339ca864",
	"chimp/jitter":          "6383dea78025ec8b898e4aa2ca820fc729b6e937b7f0b8546fa66a82389f0a95",
	"chimp/pair":            "45da527fac87a5f781e66701520f3597b56f84e6298d0ffec0494254819e4544",
	"chimp/plateau":         "0a816a8dd221f76a18f387ce0a6bfa2722436d818f69f2e7c542be645b4466b8",
	"chimp/regular":         "90b59cfefd09bb67c107f7d5113f0f871e7760c89319cfe58ccb074516e74b9e",
	"chimp/single":          "6826c3f3f536bda6f3095d5b0a9227a73daa2cca5219022571c05e59af2dcb4d",
	"chimp/walk":            "c11534fca83884db5e952b528c77a4804ae8fb9d03f62b8d1018b3b18be8c018",
	"chimp/wave04":          "0d43b1cb665d599dcc1c959a66f71442ecf81a76b3f6f459b8b943d8a3cf19d7",
	"chimp/wave08":          "e46e2a5c4fdb167ca8c033dd175667cd002ba4225051f5680a5d34cfe27795f8",
	"chimp/wave12":          "c6f2e67ddcc04c6f18d4c2ccad6f48623738b726f613bef04ab1222e7373c07e",
	"chimp/wave16":          "ffbf03f4ba97784515c699fffad03034be9b7d6f1928426ebb6a2cfb266d343b",
	"chimp/wave20":          "e3f9a0e01667eabf15c2ad60c7c92e5791ccb7167446b621dfd6ce3ae7e36a84",
	"elf/bigdelta":          "75165db2377727871eeafce0b84ef3e9599c753828dc0ac8b67eacc304525532",
	"elf/edge0":             "372ab4d1033e222974e7212d9ee1c8a16a99f7d1d03250437692ce8d62dbf856",
	"elf/edge1":             "367250425f33379998ee4b484e1476c4341f94b17220456390c047b2d22a495f",
	"elf/edge2":             "f4a698e06a58ba39360b522430f0c885b2258aa708003b6cbcea2cc45d62751b",
	"elf/edge3":             "54eb163b9d246b5df0712cbee64751338d5705e20277cafffce859e6981d71e0",
	"elf/edge4":             "f972e6406d5877432303cd5dbf5b01329a0604dfe14f0d7a2dd8005127e1108d",
	"elf/empty":             "d14aaa25312c3c63d3a1a78b7d7cf10c3e480e60f790113d9366cdffc605d014",
	"elf/extremes":          "f94906f0430f8a7540d38412e0660948b9378ebcd2ce6cf448f70e24e9252960",
	"elf/jitter":            "8955a85b3c5095f741601305549fe522bb191012b5db1e7fabbf4465610fd5bb",
	"elf/pair":              "d58b13e264baf0a249b0d9e7263060c8fc71395fdd5359eeaf4205ccc392d150",
	"elf/plateau":           "fc13691df81fa8ba956f2b3a7800b45e24097589b00570bf27aab86f6211c604",
	"elf/regular":           "c6b5dc0f23c2acb2a859f21e26651a256f5205708253d0482f95ed2fffd7d871",
	"elf/single":            "727130cd022d45f68f6967cdc930cba7e9aa29dbc7f6ecbeb6828daa41c8a471",
	"elf/walk":              "c1ad8e41320366a2d567d0516dbe6727c7021adbbc206f03e2cd5b08f1db3ed1",
	"elf/wave04":            "6b0e5b7e6805515bcc54e3e7d0ad61d7a63636c2326c36001bf3f5fb7f7024ac",
	"elf/wave08":            "7c491c062a1c124e7330e9a77c66ba0197037c482be5a762333fec3b63210f26",
	"elf/wave12":            "d8aebedb51fc8c167cf0bd37698ead53f3dd05a4b26441cc33417fb4dab43743",
	"elf/wave16":            "184ddc3373080e3f8de136af53310b6db3769fbe1c55e7827291b7e3bbdb8a7f",
	"elf/wave20":            "5aab860ec7bf15c2cc1ab05a2a477c6bb8e1936bafe3bdf6abd25eebc0576343",
	"fastlanes/bigdelta":    "703377ed6620a8966a4ead13c6c86874ff17d6a2ef9a5e235889f444984201d2",
	"fastlanes/edge0":       "783b3d6f955c0de5f9bccc208b18402ba91bf92640195bd0c9c57d16d830943c",
	"fastlanes/edge1":       "11c1b601ab617443dee78527ff65067e16401d66e628e23352ea33f5ed74d878",
	"fastlanes/edge2":       "a97bce1714d9e7fa47d53e0ad5e7225108c96f41ba5528a9a29a02c699992160",
	"fastlanes/edge3":       "89cb932fe22aa178ed527511c4a67eb534be1c981d93f57320008a505c5a9f9f",
	"fastlanes/edge4":       "419c6e8167ff3f4b43e20bb08b5a72bb7f9c05d58ee8963ed99d0b01eb3d1129",
	"fastlanes/empty":       "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
	"fastlanes/extremes":    "0a99b57f4d72f7c871eaf797b4f9b455e0af0c4983fa34619655c185fa6ba82b",
	"fastlanes/jitter":      "c460faee1376be895cf6ba97ad27d4a0b6765fc0dabbdcac82d2de6f70dcd458",
	"fastlanes/pair":        "c220505b54299986110739dbcd314e90cfd87f6602e3fa0d896e7e3999023f9f",
	"fastlanes/plateau":     "58c702f1059effad599904f1179b00fb954dce1952ee6a21424e0adc6b80633d",
	"fastlanes/regular":     "433c13bfed530f2cd771ed47dac1de9f8a7d65cc9006fec4145454c1b1510b96",
	"fastlanes/single":      "5b4d267a91964a761c848fc5213d20c7edc78ed222bfe451ecf7885a62c12a94",
	"fastlanes/walk":        "2669dbba056d9626664734a0a0818064effbc4e5d8f79dc30518709bb8c77598",
	"fastlanes/wave04":      "44d713d2621195d072ddd215adda42f3de671fe4091855395e49107c85164a62",
	"fastlanes/wave08":      "c4edee0e9aefe2f0e0f904206ac1050e2760eeab8e86b0f480234f5494ea2f43",
	"fastlanes/wave12":      "26510f045056535e334bfda87fddffc958185a1d764a9b9a5ebdc249b240f903",
	"fastlanes/wave16":      "7723b765a6c2dac901bad98dfbc670a0a89e4aedb417dea94cdc6f18fe4ede22",
	"fastlanes/wave20":      "92d24940240d1189157782694fbd1bbf0d4cb89c47e0412b4599bfb16390a2b5",
	"gorilla/bigdelta":      "7a025be985c5ff2536c96007d4f87e0f419cbfd460f86665993b1d38cfdd7562",
	"gorilla/edge0":         "c966812a9c8e6996435f60969e82b7cdf9a1eef44794e692e7d8249f9ea5273b",
	"gorilla/edge1":         "3a3f55612706539e99a7123ec1869b9ad02f0b4f2eccbe97f4c429cf83954d5a",
	"gorilla/edge2":         "4dfdd2fb6ffd7462d8b6c461c931810f4185c9570ce074382d034640e2473164",
	"gorilla/edge3":         "7d1c80dfce8f408913f82bcc331b5527a2dec4a3a6d62f20864a93ea4b3f591a",
	"gorilla/edge4":         "7154c39f3f35577080f8e50874f947e7acdf9030ddae8db1e863b9375752570c",
	"gorilla/empty":         "48bfe6d7a4da65ee726ac13429cac11a06a383c8976d844892095b7cbc530ca7",
	"gorilla/extremes":      "52ae9b84f4cd6647d63536367cc13a9499b6f1b279150d75b66fae9bb41a3a79",
	"gorilla/jitter":        "32f3271c27b36172d1e6adc6cfa52c3c36197565aa9230bc0240f8e9d5ee63b5",
	"gorilla/pair":          "740b0cba460273fd2819a7bee430424579f2f804608e1a1facaf04ea35e5c576",
	"gorilla/plateau":       "7c1be45c978131dd59bede07de3ba250bb4fce15097e6d4781e2c7118597fda5",
	"gorilla/regular":       "0d4436264925f0ad629025333f6b027bc0d34c30e72cf54c1950f19fbb0707d5",
	"gorilla/single":        "419e1987580a6c286bd2a6496bb4197b64bf74ffc33099f7049857a5a314cbef",
	"gorilla/walk":          "1cb030c4fa0ef6bff9e0283a389bf161f608f10781147991ef727b9c5a6d6b86",
	"gorilla/wave04":        "2e7d4dbe174207ffdd204c4ec955918185e1385bd20cb62e88be91131efd9b14",
	"gorilla/wave08":        "df767af9a96e7da080f85fe4ee5544ab18007890f65f99ccf6abfcd7f3c6bf92",
	"gorilla/wave12":        "5c600834b38c1e8f5f48ae4caaa4ebce76a34d1cca5505c6fa9003300bca2fb4",
	"gorilla/wave16":        "d1119a6a3ffbcd0dd3ae470c9a5434592eb576a23af075ab4b18d1b6c320333c",
	"gorilla/wave20":        "98394b37c5313fbc4ee16bb5e804571279890b351e86cc07b1baf0630a57c806",
	"gorilla-time/bigdelta": "ec3ab3a588c92800853d99d9dc8db847ea81e9aa17d9b33bccdbbae9a8f30516",
	"gorilla-time/edge0":    "89884622061b08dd8981ee9064edde5e5fc22571cb35dcc2ddb285254127ef6c",
	"gorilla-time/edge1":    "27d1e2257a039813d5c826d6d395c28d6f567cfa3838157c772011f0080358e6",
	"gorilla-time/edge2":    "be0c8fd37195b7b8a1d5c335ca4704f2197285ba26a0dbe379e363fba90f1cc2",
	"gorilla-time/edge3":    "8d1caf00593c9efb310e3f747f79da242da6aa3a022f531e9a386bc96042f19f",
	"gorilla-time/edge4":    "1d16ffe2707a93f06eec1c8f35c4794de62667898fb3cd0bcf9df4aa91baebc0",
	"gorilla-time/empty":    "48bfe6d7a4da65ee726ac13429cac11a06a383c8976d844892095b7cbc530ca7",
	"gorilla-time/extremes": "52377455650bbe05e58cc6762774c13cc680d65dd79c79a7a4557247923faeb1",
	"gorilla-time/jitter":   "a334b963662bed7cc03c17a35d4ae13ce340a6ebed5c9e9b6d9841f6bbe41071",
	"gorilla-time/pair":     "39e19f8666090150e886b146048bb42e605f460a6c615c90c38fff4b252e80fa",
	"gorilla-time/plateau":  "cb8ba4db4cf8fee700e142fa75a669d8f63ed16395c2a57031b911c1a7dcdbbd",
	"gorilla-time/regular":  "6755adad4b7b81310b2ebb7d0a448571c2a5a66e7b28a119a1d84e80528cc341",
	"gorilla-time/single":   "419e1987580a6c286bd2a6496bb4197b64bf74ffc33099f7049857a5a314cbef",
	"gorilla-time/walk":     "1de7016c1d78d6da5c2f6591d8d4523ace214a1efe86ac51020d9b04f3239beb",
	"gorilla-time/wave04":   "4fa447a95d143032bd71a83d91de5b24b13b0daf3a0ec7b852ff507c523ae095",
	"gorilla-time/wave08":   "8aa6b0ca76fee9165b767de1e16dfe9a3a40d56edd04f992ccb8bb5c470939e9",
	"gorilla-time/wave12":   "ee76a8947ae2207462c5f0ee1b3b15a2237d36467ff2d125249089b7317b0fc7",
	"gorilla-time/wave16":   "60998f9bc31d4b803823d8c3a4023a6ce7690563efe82f6a31aadbf28a953ac0",
	"gorilla-time/wave20":   "ba49488f0cc2e4c0c6cbed06b79ccff6c70b7984cb13fab8df3f7dfd02cae486",
	"rlbe/bigdelta":         "1919d407bdedb2f825f0e79e1b012701fc4f7b1bd9d495bd11c6bb6ce10b355d",
	"rlbe/edge2":            "a38f19cbaf12dab5de87b89a2e89670b612cbffb82556107082634b268ae2391",
	"rlbe/empty":            "d3523996fb9bccd8a1c8c9d35cdc9cd00aa22df907c123a226692712abca1334",
	"rlbe/jitter":           "9c2dba734bcc89731047aec34646bcbfa8948f1649deb2c8fe419877ce92c687",
	"rlbe/plateau":          "7d4f15d8da8e4589bfff8ce5e26f091da83505e7f6e6e411cb430ad9e9440fd8",
	"rlbe/regular":          "b5b5115bf4cf0466a8bb261d80b9e23f50f0034c189ccec7999c086b9baf5fbd",
	"rlbe/single":           "28254850bf90fe3742970448ab19ba70df72463b804213f27edfe6a7664ca104",
	"rlbe/walk":             "e334181c818e082403a521638fcef6809bba7f5c41108afe62da8e1af9ac4445",
	"rlbe/wave04":           "38f3640f02679eb75fb78e2b779d8e357a301ab06347310e9f5582818082a112",
	"rlbe/wave08":           "200ae097df6904f3ef36419e706acd50c751b2342af0842c6e448ad8695facd2",
	"rlbe/wave12":           "f4ca762089bbb907f710e48eb0be8c488b61d7f6adc5d54cf1dc69db181490c8",
	"rlbe/wave16":           "878e5484bed6c8e8e138c1dc4ef4f0b7183ad2e7483f5d2419b8ee686e194206",
	"rlbe/wave20":           "374928206b62206fad5ca950cc8c07e35642a188dc1bc3c11cfadeb40d635957",
	"sprintz/bigdelta":      "8abf93258737bb93f3bf1a46f10963b763b714786e27e727200afa66ade07d6b",
	"sprintz/edge0":         "ba1a44f36a4137982adff3d70a972fd04fc6e68fc74b526e01403ff0f253e214",
	"sprintz/edge1":         "1a0b45003b8be8d94c37e0bcb58e1aacd7228f8bbf5148bd7e25332e5a97c795",
	"sprintz/edge2":         "cd16385c9422f6185edc99297932f08fe1ca3b9b27d8596e38a13eb55720c917",
	"sprintz/edge3":         "4cb24219371dae4a163e0be42f6d8f3552658e6807acc6a7ca07be48a2df53fa",
	"sprintz/edge4":         "97605751de5039df0c9f536c15799e44d91241d158e42219e55f214297e6b0ad",
	"sprintz/empty":         "daf78c6e8cd1906dfc17c80c5b832e48704153c5465b24d01d30835889a2e868",
	"sprintz/extremes":      "a340592a80e201ba1acb55fd5dd37a07f70702e8ee29023de2af020ad5f7c25d",
	"sprintz/jitter":        "a086faca870f9e6e4fa554a801baa5e258110006743899745f64beb5459a1407",
	"sprintz/pair":          "ad0f498cb058020357f4f4d414a62c0fcdabf226a27a385b3f6e1b099de864a0",
	"sprintz/plateau":       "d2630e1bf2ab698767933c701253c5f89b05285ff68e980bba0a5c6cb2765486",
	"sprintz/regular":       "0bff574578b5ee9d34563f28f00d71df809d1c5c94a2b6099427b647f095822c",
	"sprintz/single":        "fdf66dc96a2ffc2cc451192cb3ab413321a821dcfd4dcc1e3973dd926e469952",
	"sprintz/walk":          "fbd69640cf9346a99c260eda5fd441da0af4a429d06472d97287fd13f5f60e0f",
	"sprintz/wave04":        "42ddecc210d05e5972e7fd16d4e223d11e71c6d9a6fe65869ec1bbf3acdbd17e",
	"sprintz/wave08":        "a4cf258ddcbc16c9748c18e11786a60df7514429f0b72150488e1b4a52a5571c",
	"sprintz/wave12":        "adccccce2408b0413b8a8c0a041317a3b26f6905a46fdc6a5984c832bcecc961",
	"sprintz/wave16":        "3465479e7cd949f93dd1bb0ab588968852e49f5e4f330cb1673b2159b7c52ab1",
	"sprintz/wave20":        "5ca569590aa5012b7493655f29480f99cc989890e511df74a7ee21f84523a7d5",
	"ts2diff/bigdelta":      "af56665753555d3218045a629a69d840246c5c92078b9d52b2e374eb2cc700a9",
	"ts2diff/edge0":         "91b909a2ecff3d8d0790d9365fd7367ffc8be319360051baaea2a042331076e5",
	"ts2diff/edge1":         "79d56cb2f5e059d1c4a9aca9f73c81d3bd8b59006215f640f26f59c5b86a082f",
	"ts2diff/edge2":         "d9d8732f060d062c47f38e49a5e91c5a597a9524576511d38b6b759fd9928953",
	"ts2diff/edge3":         "4f3f37b798cd8b30658bf4e10d4b31100170d19c493dfc083df8aab5760c5777",
	"ts2diff/edge4":         "58516894dd228673897efe10f7cf738321ed14b83e62a2c8b7ad8f0886fd2f02",
	"ts2diff/empty":         "59289eddbb789710a22e6b9545c72f05485e90ebf4ea3e6656accc8c6b657757",
	"ts2diff/extremes":      "56ca0ece83086e5c273afe02900e7a59d5bb57d6f90c9171da6fa2d2b1183e9f",
	"ts2diff/jitter":        "5bfd6b1f81433580dbb5be847d24ce7616236e15d934cd85c0306f4018a22de7",
	"ts2diff/pair":          "df537b7e6bb0e1b7f044c2832ce07ee7b6f6ad544fb7ddf9024bb8e99d2572ab",
	"ts2diff/plateau":       "e10ea9a59ef401a67e09421776dad21e487ae7d7c0a3fdf87af17fd1b96505cf",
	"ts2diff/regular":       "414c29d552012cf7825e5d7939b37bd4088a9edd251ff7a8ac58ac9300781c30",
	"ts2diff/single":        "1618678734290af0244e06706df16478e6e7bc40b42698246ad00c74eae0da99",
	"ts2diff/walk":          "5b3a549c0a3c4150fcd5fe4c6a1a775883033701abc34b0fba89084a2a841aa3",
	"ts2diff/wave04":        "aa3449173102f8aa77b5d450e83716c8e98be3579c1c19cc7d3008c936ddb1fc",
	"ts2diff/wave08":        "dbc529860d4ebf2eb1d923d6a4010ddaa989264597fd77ec7f15f3c69522cce2",
	"ts2diff/wave12":        "7e8d9ab6bba22fd1166d36855b46685b2f869d1381ee69fb29e3d935c8ddc45b",
	"ts2diff/wave16":        "24c3ebf583f0fbf8269c96cfd9aecb8a96b6d84de6ccd8e87105e7b66d6a1e99",
	"ts2diff/wave20":        "311e3f41865403995a99e6bc835a32b4611ef764a92177bb79ebc35c7fd26eb2",
	"ts2diff2/bigdelta":     "d7917c849222c7ff26c0b7b17d0adf75f19d5af8ba5d6289e460641e64f4e3e1",
	"ts2diff2/edge0":        "60ceff598ae1ab8c9d60ffad5f0e02c1e036d17b4c86ca32f1dc4fadc163f238",
	"ts2diff2/edge1":        "2ed02ae5380006e618b3d68870e6d0ba7c701362d23509ddd35f686911415ad1",
	"ts2diff2/edge2":        "0b34b893060c8b166af569895ba27dc5ca57d32b6e64bd4164c3f7d6a3189d07",
	"ts2diff2/edge3":        "811dfdfdc4569dba2ecc73bfa9ef78758b227b1acb71aea3a399301cc57cf620",
	"ts2diff2/edge4":        "a9793e2bf684471becfb66d7ff447b91d6a82f517e4aa119c9be22b8f53f1126",
	"ts2diff2/empty":        "3987ca810c6e6a9257bc20f4b6ce625a2f8c78a0b7bea20076cafafc150d4ced",
	"ts2diff2/extremes":     "931ba0a2623a9f5fb60d0b71164c7ba235840eb9fc75f8b39c65328d5c2279e0",
	"ts2diff2/jitter":       "731a884c15cb5ed10b5be0887c02bd888c23f12dfec30a496134633cdc3552e1",
	"ts2diff2/pair":         "f665a76c803f72e681d006935c7d5420687f66119b3d6b74843ed3e88c170408",
	"ts2diff2/plateau":      "20c4860cf369dd715b3342499571e5686e77b31e54cba5fcba9e8d9de03f5249",
	"ts2diff2/regular":      "f36331081be89bb435fe2c5731f670a661945a7d1a450e716686c6a738a7e19f",
	"ts2diff2/single":       "f3717210f9685faf4764e826376238b338f4aa57761165fb11457fdefa644d89",
	"ts2diff2/walk":         "8a840772d10d0e204651b535e3758076d741e1c8f399ac7d8069dcfe8334d39f",
	"ts2diff2/wave04":       "8d58edc9634e47fa16d6bc61b33260feb885cfa07919d6ac4693af4183575c40",
	"ts2diff2/wave08":       "df806d5f37bea8fca275f6fbb580d8e899007b921b1c4c89572419c7ab938cf9",
	"ts2diff2/wave12":       "c59a501513a69302bfb18407eeb6e57abe218c3b37c6130e402acdbbe1d99cea",
	"ts2diff2/wave16":       "2d9c379bb2742df1599a28b35b6194e0fd14aabdf3afe841150255c3c31256ca",
	"ts2diff2/wave20":       "0390e621646bae45f843eb2e616240aa3b42bd8584dc1e2ab3cd90e99281a088",
}

// TestGoldenPageBytes pins the on-disk format: every registered codec
// writes the recorded bytes for every golden column.
func TestGoldenPageBytes(t *testing.T) {
	cols := goldenColumns()
	covered := map[string]bool{}
	for key, want := range goldenPageSHA256 {
		var name, col string
		for i := len(key) - 1; i >= 0; i-- {
			if key[i] == '/' {
				name, col = key[:i], key[i+1:]
				break
			}
		}
		c, err := encoding.Lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		vals, ok := cols[col]
		if !ok {
			t.Fatalf("%s: no golden column %q", key, col)
		}
		data, err := c.Encode(vals)
		if err != nil {
			t.Errorf("%s: %v", key, err)
			continue
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: page bytes moved: sha256 %s, golden %s", key, got, want)
		}
		covered[name] = true
	}
	for _, name := range encoding.Names() {
		if !covered[name] {
			t.Errorf("codec %s has no golden page", name)
		}
	}
}

// columnOf reads a fuzz input as big-endian int64s; a trailing partial
// word is dropped.
func columnOf(data []byte) []int64 {
	vals := make([]int64, len(data)/8)
	for i := range vals {
		vals[i] = int64(binary.BigEndian.Uint64(data[8*i:]))
	}
	return vals
}

func bytesOf(vals []int64) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.BigEndian.AppendUint64(out, uint64(v))
	}
	return out
}

// FuzzCodecRoundTrip is the property every registered codec keeps: any
// int64 column comes back exact from Encode then Decode, or Encode
// fails. A page that encodes but decodes wrong, or does not decode, is
// a page the store would accept and could not answer from.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, c := range edgeColumns {
		f.Add(bytesOf(c))
	}
	f.Add(bytesOf([]int64{5, 10, 15, 20, 20, 20, 7}))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := columnOf(data)
		for _, name := range encoding.Names() {
			c, _ := encoding.Lookup(name)
			page, err := c.Encode(vals)
			if err != nil {
				continue
			}
			back, err := c.Decode(page)
			if err != nil {
				t.Fatalf("%s: %v encoded, then failed to decode: %v", name, vals, err)
			}
			if !slices.Equal(back, vals) {
				t.Fatalf("%s: %v decoded as %v", name, vals, back)
			}
		}
	})
}

// BenchmarkCodecEncode times each registered codec's Encode per row on
// the golden wave page of width 12 and on the plateau.
func BenchmarkCodecEncode(b *testing.B) {
	cols := goldenColumns()
	for _, name := range encoding.Names() {
		c, _ := encoding.Lookup(name)
		for _, col := range []string{"wave12", "plateau"} {
			vals := cols[col]
			b.Run(name+"/"+col, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := c.Encode(vals); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/row")
			})
		}
	}
}
