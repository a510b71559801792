package cpp

// The preprocess.golden inputs, for the external differential tests.
var (
	PreprocessCorpus = preprocessCorpus
	GoldenOptions    = goldenOptions
)
