"""Query-sentence relevance and stance classification.

Two chained classifiers over a labeled sentence corpus: a binary
relevance stage driven by five lexical similarity features, and a
support/oppose/neutral stance stage driven by a TF-IDF bag-of-words
block plus sentiment counts. Both stages use the package's own
SMO-trained kernel SVM.
"""

from .corpus import (
    SentenceRecord,
    group_by_query,
    load_dataset,
    split_train_dev,
)
from .features import (
    VocabularyModel,
    WordTable,
    feature_cosine,
    feature_exact,
    feature_neighborhood,
    feature_noun,
    feature_stemmed,
    fit_vocabulary,
    task1_features,
    task2_features,
)
from .lexicons import (
    GlossDictionary,
    Polarity,
    SentimentLexicon,
    gloss_first_k_sentences,
    load_gloss_dictionary,
    load_noun_lexicon,
    load_sentiment_lexicon,
)
from .pipeline import (
    EvaluationReport,
    LexiconSet,
    PipelineConfig,
    TrainedPipeline,
    evaluate,
    load_task_model,
    macro_average,
    predict_chain,
    predict_task1,
    predict_task2,
    save_task_model,
    train_task1,
    train_task2,
)
from .svm import (
    BinaryModel,
    KernelConfig,
    MulticlassModel,
    SupportVectorPool,
    SvmConfig,
    WeightsModel,
    decision_value,
    decision_values,
    predict,
    predict_batch,
    train_binary,
    train_multiclass,
    weights_form,
)
from .textproc import porter_stem, split_sentences, stem_tokens, tokenize, tokenize_batch

__version__ = "0.1.0"
