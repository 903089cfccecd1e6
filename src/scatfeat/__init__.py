"""scatfeat: two-layer wavelet scattering features for fixed-length speech,
an MFCC baseline, an SMO-trained RBF SVM and a LOSO evaluation harness."""

from .audio_io import Waveform, fix_length, load_wav, resample
from .classify import (GridSearchResult, Standardizer, SvmModel, grid_search,
                       model_from_json, model_to_json, smo_solve,
                       standardize_apply, standardize_fit, svm_predict,
                       svm_train)
from .config import FEATURE_KINDS, RunConfig, feature_config_hash, load_config
from .evaluation import (ConfusionMatrix, ExperimentReport, FeatureRow,
                         FoldReport, ManifestRow, accuracy, confusion,
                         load_manifest, loso_splits, param_sweep,
                         run_experiment, run_loso, uar)
from .features import (extract_many, extract_vector, read_feature_file,
                       write_feature_file)
from .filterbank import (BandpassFilter, FilterBank, FilterBankSpec,
                         build_morlet_bank, littlewood_paley_bounds,
                         littlewood_paley_sum)
from .mfcc import mel_filterbank, mfcc_frames, mfcc_stats
from .scattering import (frequency_scattering, lowpass_average,
                         scattering_paths, time_scattering, wavelet_modulus)

__version__ = "0.1.0"
