from .extract import FeatureVector, GroupStats
from .schema import FEATURE_NAMES, FEATURE_CATEGORY, METADATA_COLUMNS, csv_header
